//! Content-addressed artifact store.
//!
//! Every task's own parameters (dataset spec, seeds, method, model,
//! budget, …) and the content addresses of its input tasks are folded
//! into a flat canonical string; its 128-bit FNV-1a digest is the task's
//! **content address**. An input appears as its 32-hex-digit key, never as
//! its own description, so each description is rendered and hashed once
//! however deep the chain above it. Two layers sit behind one interface:
//!
//! * the memo — an entry-capped LRU map of the small artifacts a
//!   submission retains (contexts, cells, cell batches, datasets, grids),
//!   so an in-process repeat is answered without running a task; heavy
//!   artifacts (splits, cleaned matrices, trained models) live only as
//!   long as a live submission needs them;
//! * an optional on-disk layer ([`DiskStore`]) under a run directory —
//!   persists every artifact with a stable serial form (grid cells, dataset
//!   contexts, splits, cleaned matrices and trained models), so a *resumed
//!   or repeated* study skips all finished work, at task granularity.
//!
//! The disk layer is a real store, and its directory holds nothing but
//! its entries:
//!
//! * **framed binary entries** — every `.art` file is a
//!   [`cleanml_dataset::codec`] binary payload wrapped in the versioned,
//!   checksummed artifact frame (magic, format version, payload length,
//!   FNV-1a checksum). [`DiskStore::load`] validates the frame before a
//!   decoder sees a single byte: truncated, corrupt, legacy-version or
//!   foreign files are deleted and reported as misses — the task simply
//!   re-runs — never a crash or a mangled artifact;
//! * **atomic writes** — artifacts are written to a temp file unique to
//!   the process and the write, and `rename`d into place, so a concurrent
//!   reader (a second process sharing `--cache-dir`) can never observe a
//!   torn entry;
//! * **the directory is the index** — [`DiskStore::open`] scans the
//!   `<key>.art` files once for their sizes and LRU order (mtime, oldest
//!   first), so there is no sidecar to go stale after a kill; the
//!   sidecars of earlier store generations (`index.v1`, `index.v2`) are
//!   deleted on open, and so are temp files older than `TMP_GRACE`, which
//!   only a crashed writer leaves: a younger one may be another live
//!   store's write in flight;
//! * **size-capped LRU eviction** — with a byte budget configured
//!   (`--cache-max-bytes`), entries are touched on read and the
//!   oldest-accessed are deleted before a new write would exceed the cap,
//!   so the run directory stays bounded for arbitrarily long studies
//!   (per writing process: concurrent capped processes can combine to
//!   overshoot transiently, healed at the next open). A touch also sets
//!   the file's mtime, so the LRU order survives a restart.
//!
//! Floats are serialized via their raw IEEE-754 bit patterns, so a warm
//! run reproduces byte-identical relations.

use cleanml_dataset::codec::{open_frame, seal_frame};

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

/// 128-bit content address (two independent FNV-1a lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u64, pub u64);

const FNV_PRIME: u64 = 0x100_0000_01b3;

impl CacheKey {
    /// Hashes a canonical task description: its own parameters plus the
    /// keys of its inputs. Both FNV-1a lanes advance in one pass over the
    /// bytes; the second starts from a different offset basis, which
    /// decorrelates the halves, and is finished with a rotation and the
    /// length.
    pub fn of(canonical: &str) -> CacheKey {
        let (mut h0, mut h1) = (0xcbf2_9ce4_8422_2325_u64, 0x6c62_272e_07bb_0142_u64);
        for b in canonical.bytes() {
            h0 = (h0 ^ b as u64).wrapping_mul(FNV_PRIME);
            h1 = (h1 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        CacheKey(h0, h1.rotate_left(1) ^ canonical.len() as u64)
    }

    /// Parses the 32-hex-digit form produced by `Display` (artifact file
    /// stems). Non-ASCII input is rejected before slicing: a stray file
    /// with a multi-byte char straddling byte 16 must be a `None`, not a
    /// char-boundary panic during the directory scan.
    pub fn parse(s: &str) -> Option<CacheKey> {
        if s.len() != 32 || !s.is_ascii() {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(CacheKey(hi, lo))
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// Binary serial form for artifacts that survive on disk. Artifacts that
/// return `None` from [`DiskCodec::encode`] live only in memory. The
/// payload is raw codec bytes; the store adds (and strips) the artifact
/// frame, so codecs never see header bytes.
pub trait DiskCodec: Sized {
    fn encode(&self) -> Option<Vec<u8>>;
    fn decode(bytes: &[u8]) -> Option<Self>;

    /// Whether a disk hit should also be inserted into the memo. Heavy
    /// artifacts (tables, matrices, models) return `false`: the decoded
    /// handle goes back to the resolver, which prefills it into the
    /// demanding node, and the pool drops it after the node's last
    /// consumer, so the memo never accumulates them.
    fn promote_to_memory(&self) -> bool {
        true
    }
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// Framed file size in bytes.
    size: u64,
    /// Logical last-use time: the open ranks the files by mtime, and every
    /// later read or store moves an entry to the newest slot.
    access: u64,
}

#[derive(Debug, Default)]
struct IndexState {
    entries: HashMap<CacheKey, IndexEntry>,
    /// Logical clock; strictly increases across loads, stores and touches.
    clock: u64,
}

impl IndexState {
    fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.size).sum()
    }

    fn touch(&mut self, key: CacheKey) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.get_mut(&key) {
            e.access = clock;
        }
    }
}

/// Per-process sequence for temp-file names: two stores of one process
/// writing the same key never share a temp file.
static TMP_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Age past which `open` deletes a temp file as a crashed writer's
/// residue. One write takes milliseconds; a younger temp file may belong
/// to another live store sharing the directory, whose `rename` would fail
/// and lose the write if the file were deleted under it.
const TMP_GRACE: Duration = Duration::from_secs(10 * 60);

fn tmp_path(dir: &Path, stem: impl fmt::Display) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{stem}.tmp-{}-{seq}", std::process::id()))
}

/// Stamps `file` as just used, so the next open ranks it newest. A failure
/// (a file another user owns, in a shared directory) only ages it.
fn mark_used(file: &File) {
    let _ = file.set_modified(SystemTime::now());
}

/// The persistent, thread-safe artifact layer: one directory of
/// content-addressed `<key>.art` files, which is also its only index —
/// sizes come from the files and the LRU order from their mtimes.
///
/// Shared (via `Arc`) between the [`ArtifactCache`] front-end and the
/// worker pool, which persists artifacts the moment tasks finish so a
/// killed run loses nothing that completed.
///
/// The store is also the coordinator side's serve/accept plane for remote
/// workers: a `Fetch {key}` that misses the in-memory slots is answered
/// from [`DiskStore::load`] (touching the LRU slot like any other use),
/// and a `Done` payload — already validated by a full artifact decode —
/// lands through [`DiskStore::store`]'s atomic write path before any
/// dependent task can observe it, so a partial or torn artifact can reach
/// neither a reader process nor a remote peer.
pub struct DiskStore {
    dir: PathBuf,
    max_bytes: Option<u64>,
    state: Mutex<IndexState>,
}

impl DiskStore {
    /// Opens (or creates) the store under `dir`, indexing it from one
    /// directory scan: every `<key>.art` file is an entry, ranked oldest
    /// first by mtime (ties by key) for LRU eviction. The
    /// `index.v1`/`index.v2` sidecars of earlier store generations are
    /// deleted, and so are temp files last modified more than `TMP_GRACE`
    /// ago; younger ones may be in-flight writes of another live store
    /// and are left alone. Fails when `dir` cannot be created, read or
    /// written to: every store would fail silently after that.
    pub fn open(dir: PathBuf, max_bytes: Option<u64>) -> io::Result<Arc<DiskStore>> {
        std::fs::create_dir_all(&dir)?;
        let mut files: Vec<(Option<SystemTime>, CacheKey, u64)> = Vec::new();
        for entry in std::fs::read_dir(&dir)?.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(key) = name.strip_suffix(".art").and_then(CacheKey::parse) {
                if let Ok(meta) = entry.metadata() {
                    files.push((meta.modified().ok(), key, meta.len()));
                    continue;
                }
            }
            let stale_tmp = || {
                let modified = entry.metadata().and_then(|meta| meta.modified());
                modified.is_ok_and(|t| t.elapsed().is_ok_and(|age| age > TMP_GRACE))
            };
            if name == "index.v1" || name == "index.v2" || (name.contains(".tmp-") && stale_tmp()) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        let probe = tmp_path(&dir, "open");
        std::fs::write(&probe, b"")?;
        let _ = std::fs::remove_file(&probe);

        files.sort_unstable();
        let mut state = IndexState::default();
        for (_, key, size) in files {
            state.clock += 1;
            state.entries.insert(key, IndexEntry { size, access: state.clock });
        }
        let store = DiskStore { dir, max_bytes, state: Mutex::new(state) };
        // A fresh cap may be tighter than what a previous run left behind.
        store.evict_until_fits(&mut store.state.lock().expect("index lock"), 0);
        Ok(Arc::new(store))
    }

    fn art_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{key}.art"))
    }

    /// Reads an entry's payload, touching its LRU slot. The artifact frame
    /// is validated and stripped here: a missing file drops the index
    /// entry, and an unreadable, truncated, corrupt or legacy-version file
    /// is *deleted* (GC'd) and reported as a miss — the demanding task
    /// simply re-runs and overwrites it.
    pub fn load(&self, key: CacheKey) -> Option<Vec<u8>> {
        let mut bytes = Vec::new();
        let read = File::open(self.art_path(key))
            .and_then(|mut file| file.read_to_end(&mut bytes).map(|_| file));
        let Ok(file) = read else {
            self.state.lock().expect("index lock").entries.remove(&key);
            return None;
        };
        if open_frame(&bytes).is_none() {
            self.remove(key);
            return None;
        }
        // strip the validated header in place — no second allocation on
        // the warm-resume hot path
        bytes.drain(..cleanml_dataset::codec::FRAME_HEADER_LEN);
        mark_used(&file);
        self.state.lock().expect("index lock").touch(key);
        Some(bytes)
    }

    /// Persists the framed `payload` under `key` atomically (temp file +
    /// rename), evicting least-recently-used entries first when a byte cap
    /// is configured. Returns the number of entries evicted to make room
    /// when the entry was newly written, `None` otherwise: an existing
    /// entry is only touched, and an entry larger than the whole cap is
    /// not stored.
    pub fn store(&self, key: CacheKey, payload: &[u8]) -> Option<usize> {
        let size = (cleanml_dataset::codec::FRAME_HEADER_LEN + payload.len()) as u64;
        if self.max_bytes.is_some_and(|cap| size > cap) {
            return None;
        }
        // The index lock is deliberately held across the file write and
        // rename below: eviction must happen before the incoming bytes
        // touch disk, and no concurrent store may write between the two,
        // or the directory could transiently exceed the byte cap. This
        // serializes persistence, but task compute dominates wall-clock by
        // orders of magnitude, and the strict bound is the contract.
        let mut state = self.state.lock().expect("index lock");
        if state.entries.contains_key(&key) {
            state.touch(key);
            if let Ok(file) = File::open(self.art_path(key)) {
                mark_used(&file);
            }
            return None;
        }
        let evicted = self.evict_until_fits(&mut state, size);

        // Seal only once we know the entry is new and fits: a duplicate
        // store (two engines sharing the directory, a resumed run
        // re-persisting) must not pay the payload copy + checksum.
        let framed = seal_frame(payload);
        // Unique temp name per process *and* per write: two processes (or
        // threads) racing on the same key each rename a complete file.
        let tmp = tmp_path(&self.dir, key);
        let ok = std::fs::write(&tmp, &framed).is_ok()
            && std::fs::rename(&tmp, self.art_path(key)).is_ok();
        if !ok {
            let _ = std::fs::remove_file(&tmp);
            return None;
        }
        state.clock += 1;
        let access = state.clock;
        state.entries.insert(key, IndexEntry { size, access });
        let t = crate::telemetry::global();
        t.store_writes.inc();
        t.store_written_bytes.add(size);
        Some(evicted)
    }

    /// Deletes an entry (used when a decode reveals corruption). Counted
    /// as GC in the telemetry registry, bytes included.
    pub fn remove(&self, key: CacheKey) {
        let _ = std::fs::remove_file(self.art_path(key));
        let mut state = self.state.lock().expect("index lock");
        if let Some(entry) = state.entries.remove(&key) {
            let t = crate::telemetry::global();
            t.store_gc.inc();
            t.store_gc_bytes.add(entry.size);
        }
    }

    /// Evicts oldest-accessed entries until `incoming` more bytes fit under
    /// the cap, and returns how many it evicted. Ties (e.g. files with one
    /// mtime at open) break by key, so two processes sharing the directory
    /// evict in the same order.
    fn evict_until_fits(&self, state: &mut IndexState, incoming: u64) -> usize {
        let Some(cap) = self.max_bytes else { return 0 };
        let t = crate::telemetry::global();
        let mut evicted = 0;
        let mut total = state.total_bytes();
        while total + incoming > cap && !state.entries.is_empty() {
            let victim = state
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.access, k.0, k.1))
                .map(|(k, e)| (*k, e.size))
                .expect("non-empty");
            let _ = std::fs::remove_file(self.art_path(victim.0));
            state.entries.remove(&victim.0);
            total -= victim.1;
            evicted += 1;
            t.store_evictions.inc();
            t.store_evicted_bytes.add(victim.1);
        }
        evicted
    }

    /// Bytes of artifact payload currently indexed.
    pub fn total_bytes(&self) -> u64 {
        self.state.lock().expect("index lock").total_bytes()
    }

    /// Number of entries currently indexed.
    pub fn len(&self) -> usize {
        self.state.lock().expect("index lock").entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The memo in front of the optional disk store. In-memory hits hand out
/// `Arc` handles: a hit is a refcount bump, never a deep copy of the
/// artifact.
pub struct ArtifactCache<A> {
    memory: HashMap<CacheKey, (Arc<A>, u64)>,
    clock: u64,
    /// Entry cap for the memo; least-recently-used entries evict beyond
    /// it, so a resident engine's memo cannot grow without bound.
    memo_cap: usize,
    disk: Option<Arc<DiskStore>>,
}

/// Default entry cap for [`ArtifactCache`]'s in-memory layer. Generous —
/// a full five-error-type study retains a few thousand artifacts — but
/// bounded, so a long-lived serving daemon answering varied query traffic
/// (every distinct config a distinct content address) evicts
/// least-recently-used memo entries instead of accreting them forever.
/// Evicting only ever costs a disk hit or a recompute, never correctness.
pub const DEFAULT_MEMO_ENTRIES: usize = 65_536;

impl<A: DiskCodec> ArtifactCache<A> {
    /// Creates a cache; `disk` enables an uncapped persistent layer under
    /// that directory. Panics if the directory is unusable.
    #[cfg(test)]
    pub fn new(disk: Option<PathBuf>) -> Self {
        Self::with_store(disk.map(|d| DiskStore::open(d, None).expect("usable cache directory")))
    }

    /// Creates a cache over an existing (possibly shared, possibly
    /// size-capped) disk store.
    pub fn with_store(disk: Option<Arc<DiskStore>>) -> Self {
        ArtifactCache { memory: HashMap::new(), clock: 0, memo_cap: DEFAULT_MEMO_ENTRIES, disk }
    }

    /// Overrides the memo's entry cap.
    #[cfg(test)]
    pub fn with_memo_cap(mut self, cap: usize) -> Self {
        self.memo_cap = cap.max(1);
        self.enforce_memo_cap();
        self
    }

    /// Keeps an artifact in the memo only (the pool persisted it already).
    pub(crate) fn remember(&mut self, key: CacheKey, artifact: Arc<A>) {
        self.clock += 1;
        let clock = self.clock;
        self.memory.insert(key, (artifact, clock));
        self.enforce_memo_cap();
    }

    fn enforce_memo_cap(&mut self) {
        while self.memory.len() > self.memo_cap {
            let victim = self
                .memory
                .iter()
                .min_by_key(|(k, (_, access))| (*access, k.0, k.1))
                .map(|(k, _)| *k)
                .expect("len > cap >= 1 implies a victim");
            self.memory.remove(&victim);
            crate::telemetry::global().memo_evictions.inc();
        }
    }

    /// The persistent layer, if any.
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.disk.as_ref()
    }

    /// Number of artifacts resident in memory.
    pub fn len(&self) -> usize {
        self.memory.len()
    }

    pub fn is_empty(&self) -> bool {
        self.memory.is_empty()
    }

    /// Looks `key` up in the memo, then on disk, and says whether the disk
    /// answered. A memo hit is a handle share — a refcount bump on the one
    /// decoded allocation, never a deep copy. A disk hit is decoded and
    /// promoted into the memo when the artifact opts in (small artifacts —
    /// see [`DiskCodec::promote_to_memory`]); a heavy one is only handed
    /// back.
    pub fn get(&mut self, key: CacheKey) -> Option<(Arc<A>, bool)> {
        let t = crate::telemetry::global();
        self.clock += 1;
        let clock = self.clock;
        if let Some((a, access)) = self.memory.get_mut(&key) {
            *access = clock;
            t.cache_memory_hits.inc();
            t.handle_shares.inc();
            return Some((Arc::clone(a), false));
        }
        if let Some(store) = self.disk.clone() {
            if let Some(payload) = store.load(key) {
                if let Some(a) = A::decode(&payload) {
                    t.cache_disk_hits.inc();
                    let a = Arc::new(a);
                    if a.promote_to_memory() {
                        self.remember(key, Arc::clone(&a));
                    }
                    return Some((a, true));
                }
                // corrupt entry: drop it so the re-run overwrites
                store.remove(key);
            }
        }
        t.cache_misses.inc();
        None
    }

    /// Stores an artifact under its content address in both layers, and
    /// returns the disk store's answer ([`DiskStore::store`]). Takes a
    /// handle: the memo keeps a share of the caller's allocation.
    pub fn put(&mut self, key: CacheKey, artifact: &Arc<A>) -> Option<usize> {
        let stored = match (&self.disk, artifact.encode()) {
            (Some(store), Some(payload)) => store.store(key, &payload),
            _ => None,
        };
        self.remember(key, Arc::clone(artifact));
        stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanml_dataset::codec::{push_f64, take_f64, Reader, FORMAT_VERSION, FRAME_HEADER_LEN};

    #[derive(Debug, Clone, PartialEq)]
    struct Blob(f64);

    impl DiskCodec for Blob {
        fn encode(&self) -> Option<Vec<u8>> {
            let mut out = vec![b'B'];
            push_f64(&mut out, self.0);
            Some(out)
        }
        fn decode(bytes: &[u8]) -> Option<Self> {
            let mut r = Reader::new(bytes);
            cleanml_dataset::codec::expect(&mut r, b'B')?;
            let x = take_f64(&mut r)?;
            r.is_empty().then_some(Blob(x))
        }
    }

    /// On-disk size of a payload of `n` bytes.
    fn framed(n: usize) -> u64 {
        (FRAME_HEADER_LEN + n) as u64
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cleanml-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_are_stable_and_distinct() {
        assert_eq!(CacheKey::of("train/EEG/3"), CacheKey::of("train/EEG/3"));
        assert_ne!(CacheKey::of("train/EEG/3"), CacheKey::of("train/EEG/4"));
        assert_ne!(CacheKey::of("a"), CacheKey::of("b"));
        assert_eq!(format!("{}", CacheKey(1, 2)).len(), 32);
        let k = CacheKey::of("round-trip");
        assert_eq!(CacheKey::parse(&k.to_string()), Some(k));
        assert_eq!(CacheKey::parse("xyz"), None);
    }

    /// Every persisted artifact is named by these values: a change to the
    /// hash makes every existing store cold, so it must fail here first.
    #[test]
    fn key_values_are_pinned() {
        assert_eq!(
            CacheKey::of("gen/EEG/0000000000000001"),
            CacheKey(0x81ce_cbb4_3dd9_8add, 0x61f7_1a43_8aae_b4ac)
        );
        assert_eq!(
            CacheKey::of("cell/0123456789abcdef0123456789abcdef|fedcba9876543210fedcba9876543210"),
            CacheKey(0xe7f8_d8d6_32ac_d156, 0x6cd0_fe56_7ae8_6f25)
        );
        assert_eq!(CacheKey::of(""), CacheKey(0xcbf2_9ce4_8422_2325, 0xd8c4_4e5c_0f76_0284));
    }

    #[test]
    fn memory_layer_round_trips() {
        let mut c: ArtifactCache<Blob> = ArtifactCache::new(None);
        let k = CacheKey::of("x");
        assert!(c.get(k).is_none());
        assert_eq!(c.put(k, &Arc::new(Blob(0.5))), None, "no disk layer: nothing written");
        let (hit, from_disk) = c.get(k).expect("memo hit");
        assert_eq!(*hit, Blob(0.5));
        assert!(!from_disk, "the memo answered");
    }

    #[test]
    fn memory_hits_share_one_allocation() {
        let mut c: ArtifactCache<Blob> = ArtifactCache::new(None);
        let k = CacheKey::of("shared");
        let original = Arc::new(Blob(2.5));
        c.put(k, &original);
        let (h1, _) = c.get(k).expect("hit");
        let (h2, _) = c.get(k).expect("hit");
        assert!(Arc::ptr_eq(&h1, &h2), "hits must share the allocation");
        assert!(Arc::ptr_eq(&h1, &original), "memo keeps the caller's allocation");
    }

    /// A heavy artifact: opts out of memo promotion.
    #[derive(Debug, Clone, PartialEq)]
    struct Heavy(f64);

    impl DiskCodec for Heavy {
        fn encode(&self) -> Option<Vec<u8>> {
            let mut out = vec![b'H'];
            push_f64(&mut out, self.0);
            Some(out)
        }
        fn decode(bytes: &[u8]) -> Option<Self> {
            let mut r = Reader::new(bytes);
            cleanml_dataset::codec::expect(&mut r, b'H')?;
            let x = take_f64(&mut r)?;
            r.is_empty().then_some(Heavy(x))
        }
        fn promote_to_memory(&self) -> bool {
            false
        }
    }

    #[test]
    fn heavy_disk_hits_are_not_kept_in_memory() {
        let dir = temp_dir("heavy");
        let k = CacheKey::of("heavy");
        {
            let mut c: ArtifactCache<Heavy> = ArtifactCache::new(Some(dir.clone()));
            c.put(k, &Arc::new(Heavy(7.0)));
        }
        // fresh process image: the disk hit goes back to the caller only
        let mut c: ArtifactCache<Heavy> = ArtifactCache::new(Some(dir.clone()));
        let (handle, from_disk) = c.get(k).expect("disk hit");
        assert_eq!(*handle, Heavy(7.0));
        assert!(from_disk);
        let weak = Arc::downgrade(&handle);
        drop(handle);
        assert!(weak.upgrade().is_none(), "the cache kept a heavy decode alive");
        assert!(c.is_empty());
        assert!(c.get(k).is_some(), "a later demand decodes again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_layer_survives_a_fresh_cache() {
        let dir = temp_dir("fresh");
        let k = CacheKey::of("persisted");
        {
            let mut c: ArtifactCache<Blob> = ArtifactCache::new(Some(dir.clone()));
            assert_eq!(c.put(k, &Arc::new(Blob(std::f64::consts::PI))), Some(0), "one write");
        }
        // a fresh cache's memo is empty: this hit comes from disk
        let mut fresh: ArtifactCache<Blob> = ArtifactCache::new(Some(dir.clone()));
        let (hit, from_disk) = fresh.get(k).expect("disk hit");
        assert_eq!(*hit, Blob(std::f64::consts::PI));
        assert!(from_disk);
        // unframed (e.g. hex-text era) entries are discarded, not trusted
        let bad_path = dir.join(format!("{}.art", CacheKey::of("bad")));
        std::fs::write(&bad_path, "cell v1 3fe0000000000000").unwrap();
        assert!(fresh.get(CacheKey::of("bad")).is_none());
        assert!(!bad_path.exists(), "invalid frame GC'd on load");
        // a well-framed payload that fails the *codec* is also discarded
        let undecodable = dir.join(format!("{}.art", CacheKey::of("undec")));
        std::fs::write(&undecodable, seal_frame(b"not a blob")).unwrap();
        let fresh2 = DiskStore::open(dir.clone(), None).unwrap();
        let mut c: ArtifactCache<Blob> = ArtifactCache::with_store(Some(fresh2));
        assert!(c.get(CacheKey::of("undec")).is_none());
        assert!(!undecodable.exists(), "undecodable payload GC'd");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_legacy_version_frames_are_misses_and_gced() {
        let dir = temp_dir("frames");
        let store = DiskStore::open(dir.clone(), None).unwrap();
        let k = CacheKey::of("entry");
        assert!(store.store(k, b"payload bytes").is_some());
        let path = dir.join(format!("{k}.art"));

        // flip one payload bit on disk: checksum catches it, entry is GC'd
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(k).is_none(), "corrupt frame served");
        assert!(!path.exists(), "corrupt frame not GC'd");

        // a legacy-version frame (format bumped) is a miss, not a crash
        assert!(store.store(k, b"payload bytes").is_some());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = FORMAT_VERSION as u8 - 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(k).is_none(), "legacy version served");
        assert!(!path.exists(), "legacy entry not GC'd");

        // a truncated write (torn tail after a crash mid-rename on a
        // non-atomic filesystem) is likewise a miss
        assert!(store.store(k, b"payload bytes").is_some());
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.load(k).is_none(), "truncated frame served");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_are_atomic_via_rename() {
        let dir = temp_dir("atomic");
        let store = DiskStore::open(dir.clone(), None).unwrap();
        store.store(CacheKey::of("a"), b"payload");
        // no temp residue after a completed write
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_rebuilds_after_stale_or_missing_file() {
        let dir = temp_dir("rebuild");
        let (ka, kb) = (CacheKey::of("a"), CacheKey::of("b"));
        {
            let store = DiskStore::open(dir.clone(), None).unwrap();
            store.store(ka, b"aaaa");
            store.store(kb, b"bbbbbb");
        }
        // between two runs (a kill, a second process sharing the
        // directory) one entry's file disappears, an unseen file appears
        // and a crashed writer leaves its temp file behind
        std::fs::remove_file(dir.join(format!("{kb}.art"))).unwrap();
        let kc = CacheKey::of("c");
        std::fs::write(dir.join(format!("{kc}.art")), seal_frame(b"cc")).unwrap();
        write_aged(&dir.join(format!("{kc}.tmp-999-0")), TMP_GRACE * 2);

        let store = DiskStore::open(dir.clone(), None).unwrap();
        assert_eq!(store.len(), 2, "a kept, b dropped, c adopted");
        assert_eq!(store.total_bytes(), framed(4) + framed(2));
        assert!(store.load(kb).is_none());
        assert_eq!(store.load(kc).as_deref(), Some(&b"cc"[..]));
        assert!(!dir.join(format!("{kc}.tmp-999-0")).exists(), "temp residue cleaned");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes a file whose mtime lies `age` in the past.
    fn write_aged(path: &Path, age: Duration) {
        std::fs::write(path, "torn").unwrap();
        let file = File::options().write(true).open(path).unwrap();
        file.set_modified(SystemTime::now() - age).unwrap();
    }

    #[test]
    fn open_spares_young_temp_files_and_deletes_aged_ones() {
        // a young temp file may be another live store's write in flight:
        // deleting it would fail that store's rename and lose the write
        let dir = temp_dir("tmp-grace");
        std::fs::create_dir_all(&dir).unwrap();
        let (young, aged) = (dir.join("x.tmp-1-0"), dir.join("y.tmp-1-1"));
        std::fs::write(&young, "in flight").unwrap();
        write_aged(&aged, TMP_GRACE + Duration::from_secs(60));
        let store = DiskStore::open(dir.clone(), None).unwrap();
        assert!(young.exists(), "a fresh temp file was deleted on open");
        assert!(!aged.exists(), "an aged temp file survived open");
        assert_eq!(store.len(), 0, "temp files are not entries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hex_text_era_directory_degrades_to_cold_cache() {
        // A run directory left by the v1 (hex-text) store: loose token
        // files and an index.v1 sidecar, plus the index.v2 sidecar of the
        // binary store's index era. Opening the store must neither crash
        // nor serve any of it — every entry is a miss, GC'd on first
        // touch, and both stale sidecars are deleted.
        let dir = temp_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let k = CacheKey::of("legacy-split");
        std::fs::write(dir.join(format!("{k}.art")), "split v2 T2 1 0 s78 n F").unwrap();
        std::fs::write(
            dir.join("index.v1"),
            format!("cleanml-artifact-index v1\nclock 3\n{k} 24 3\n"),
        )
        .unwrap();
        std::fs::write(
            dir.join("index.v2"),
            format!("cleanml-artifact-index v2 format {FORMAT_VERSION}\nclock 3\n{k} 24 3\n"),
        )
        .unwrap();

        let store = DiskStore::open(dir.clone(), None).unwrap();
        assert!(!dir.join("index.v1").exists(), "v1 sidecar deleted");
        assert!(!dir.join("index.v2").exists(), "v2 sidecar deleted");
        assert_eq!(store.len(), 1, "file adopted by the scan");
        assert!(store.load(k).is_none(), "legacy entry must be a miss");
        assert_eq!(store.len(), 0, "legacy entry GC'd on load");
        assert!(!dir.join(format!("{k}.art")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_cap_and_touch_on_read() {
        let dir = temp_dir("lru");
        let cap = framed(4) * 2 + 2; // room for two entries, not three
        let store = DiskStore::open(dir.clone(), Some(cap)).unwrap();
        let (ka, kb, kc) = (CacheKey::of("a"), CacheKey::of("b"), CacheKey::of("c"));
        assert_eq!(store.store(ka, b"aaaa"), Some(0));
        assert_eq!(store.store(kb, b"bbbb"), Some(0));
        // touching `a` makes `b` the LRU entry
        assert_eq!(store.load(ka).as_deref(), Some(&b"aaaa"[..]));
        // the third entry exceeds the cap: written after evicting b
        assert_eq!(store.store(kc, b"cccc"), Some(1));
        assert!(store.total_bytes() <= cap);
        assert!(store.load(kb).is_none(), "LRU entry evicted");
        assert_eq!(store.load(ka).as_deref(), Some(&b"aaaa"[..]), "recently read survives");
        assert_eq!(store.load(kc).as_deref(), Some(&b"cccc"[..]));
        // an entry larger than the whole cap is refused outright
        assert_eq!(store.store(CacheKey::of("huge"), &[b'x'; 256]), None);
        assert!(store.total_bytes() <= cap);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_order_survives_a_reopen() {
        let dir = temp_dir("reopen-lru");
        let (ka, kb) = (CacheKey::of("a"), CacheKey::of("b"));
        {
            let store = DiskStore::open(dir.clone(), None).unwrap();
            assert!(store.store(ka, b"aaaa").is_some());
            assert!(store.store(kb, b"bbbb").is_some());
            // reading `a` leaves `b` the least recently used entry
            assert_eq!(store.load(ka).as_deref(), Some(&b"aaaa"[..]));
        }
        // room for one entry: the reopen evicts `b` and keeps `a`
        let store = DiskStore::open(dir.clone(), Some(framed(4))).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.load(kb).is_none(), "the least recently used entry survived");
        assert_eq!(store.load(ka).as_deref(), Some(&b"aaaa"[..]), "the read entry was evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_with_tighter_cap_shrinks_directory() {
        let dir = temp_dir("shrink");
        {
            let store = DiskStore::open(dir.clone(), None).unwrap();
            for i in 0..8 {
                store.store(CacheKey::of(&format!("k{i}")), &[b'y'; 8]);
            }
            assert_eq!(store.total_bytes(), 8 * framed(8));
        }
        let store = DiskStore::open(dir.clone(), Some(3 * framed(8))).unwrap();
        assert!(store.total_bytes() <= 3 * framed(8));
        assert!(store.len() <= 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_layer_is_bounded_with_lru_eviction() {
        let mut c: ArtifactCache<Blob> = ArtifactCache::new(None).with_memo_cap(2);
        let (ka, kb, kc) = (CacheKey::of("ma"), CacheKey::of("mb"), CacheKey::of("mc"));
        c.put(ka, &Arc::new(Blob(1.0)));
        c.put(kb, &Arc::new(Blob(2.0)));
        assert!(c.get(ka).is_some()); // touch: b becomes LRU
        c.put(kc, &Arc::new(Blob(3.0)));
        assert_eq!(c.len(), 2, "memo stays under its entry cap");
        assert!(c.get(kb).is_none(), "LRU memo entry evicted");
        assert_eq!(c.get(ka).map(|(a, _)| (*a).clone()), Some(Blob(1.0)));
        assert_eq!(c.get(kc).map(|(a, _)| (*a).clone()), Some(Blob(3.0)));
    }

    #[test]
    fn unusable_directory_fails_to_open() {
        let dir = temp_dir("unusable");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("regular");
        std::fs::write(&file, b"not a directory").unwrap();
        assert!(DiskStore::open(file.join("sub"), None).is_err(), "a path under a regular file");
        assert!(DiskStore::open(file.clone(), None).is_err(), "a regular file");
        assert_eq!(std::fs::read(&file).unwrap(), b"not a directory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_is_idempotent_per_key() {
        let dir = temp_dir("idem");
        let store = DiskStore::open(dir.clone(), None).unwrap();
        let k = CacheKey::of("once");
        assert_eq!(store.store(k, b"v"), Some(0));
        assert_eq!(store.store(k, b"v"), None, "second write is a touch, not a write");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
