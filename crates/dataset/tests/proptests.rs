//! Property-based tests for the tabular substrate, including the dialect
//! guarantee the artifact store depends on: `read_csv(write_csv(t))`
//! reproduces `t` exactly for *arbitrary* string content — edge whitespace,
//! embedded quotes/commas/CR/LF, null placeholders, numeric-looking text.

use proptest::prelude::*;

use cleanml_dataset::codec::{
    decode_table_from, encode_table_into, open_frame, push_f64, push_str, push_u64, seal_frame,
    take_bytes, take_f64, take_str, take_u64, Reader, FRAME_HEADER_LEN,
};
use cleanml_dataset::csv::{read_csv, write_csv};
use cleanml_dataset::{ColumnKind, Encoder, FeatureMatrix, FieldMeta, Schema, Table, Value};

/// Characters that historically broke the dialect, over-weighted on purpose.
const PALETTE: &[char] =
    &['a', 'b', 'Z', '0', '7', '.', '-', '+', 'e', ' ', '\t', ',', '"', '\n', '\r', 'é', '€', '_'];

/// Strings that must survive verbatim even though they collide with the
/// dialect's null placeholders and number syntax.
const TRAPS: &[&str] =
    &["", "NaN", "nan", "NA", "null", "NULL", " ", "1.5", "-0", "3e7", " x", "x ", "\"\"", "inf"];

fn arb_string() -> impl Strategy<Value = String> {
    (0usize..4, prop::collection::vec(0usize..PALETTE.len(), 0..10)).prop_map(|(pick, ix)| {
        if pick == 0 {
            TRAPS[ix.iter().sum::<usize>() % TRAPS.len()].to_string()
        } else {
            ix.into_iter().map(|i| PALETTE[i]).collect()
        }
    })
}

/// A categorical table with arbitrary string cells (`None` = missing).
fn string_table(columns: Vec<Vec<Option<String>>>) -> Table {
    let n_cols = columns.len();
    let n_rows = columns[0].len();
    let fields = (0..n_cols).map(|c| FieldMeta::cat_feature(format!("col{c}"))).collect();
    let mut t = Table::with_capacity(Schema::new(fields), n_rows);
    for r in 0..n_rows {
        let row = columns.iter().map(|col| Value::from(col[r].as_deref())).collect();
        t.push_row(row).expect("well-formed row");
    }
    t
}

/// Strategy: a small mixed-type table with a label column.
fn arb_table() -> impl Strategy<Value = Table> {
    let row = (prop::option::of(-1e6f64..1e6), prop::option::of("[a-z]{1,6}"), prop::bool::ANY);
    prop::collection::vec(row, 1..40).prop_map(|rows| {
        let schema = Schema::new(vec![
            FieldMeta::num_feature("x"),
            FieldMeta::cat_feature("c"),
            FieldMeta::label("y"),
        ]);
        let mut t = Table::new(schema);
        for (x, c, y) in rows {
            t.push_row(vec![
                Value::from(x),
                Value::from(c),
                Value::from(if y { "pos" } else { "neg" }),
            ])
            .expect("schema matches");
        }
        t
    })
}

proptest! {
    /// CSV write → read round-trips every cell (modulo float formatting,
    /// which `{}` keeps exact for f64).
    #[test]
    fn csv_round_trip(t in arb_table()) {
        let text = write_csv(&t);
        let back = read_csv(&text).expect("parse");
        prop_assert_eq!(back.n_rows(), t.n_rows());
        prop_assert_eq!(back.n_columns(), t.n_columns());
        for r in 0..t.n_rows() {
            for c in 0..t.n_columns() {
                let orig = t.get(r, c).expect("cell");
                let round = back.get(r, c).expect("cell");
                // numeric column may come back categorical when all values
                // are missing; compare displays to stay robust
                prop_assert_eq!(orig.to_string(), round.to_string(), "cell {},{}", r, c);
            }
        }
    }

    /// `gather` then cell-compare agrees with direct indexing.
    #[test]
    fn gather_selects_rows(t in arb_table(), seed in any::<u64>()) {
        let n = t.n_rows();
        let indices: Vec<usize> = (0..n).map(|i| (i.wrapping_mul(seed as usize % 7 + 1)) % n).collect();
        let g = t.gather(&indices);
        prop_assert_eq!(g.n_rows(), indices.len());
        for (new_r, &old_r) in indices.iter().enumerate() {
            for c in 0..t.n_columns() {
                prop_assert_eq!(g.get(new_r, c).expect("cell"), t.get(old_r, c).expect("cell"));
            }
        }
    }

    /// Deletion never leaves missing feature cells and never grows the table.
    #[test]
    fn deletion_invariants(t in arb_table()) {
        let d = t.drop_rows_with_missing();
        prop_assert!(d.n_rows() <= t.n_rows());
        prop_assert_eq!(d.n_missing_cells(), 0);
    }

    /// Encoding produces finite features of stable shape, and every label
    /// index is within range.
    #[test]
    fn encoder_output_well_formed(t in arb_table()) {
        // the encoder requires at least one observed label and feature
        let complete = t.drop_rows_with_missing();
        if complete.n_rows() == 0 {
            return Ok(());
        }
        // Declare both classes up front (as the study runner does with
        // `fit_with_classes`): the deletion-reduced table may have lost a
        // class that still occurs in the original rows.
        let classes = ["neg".to_string(), "pos".to_string()];
        let enc = match Encoder::fit_with_classes(&complete, &classes) {
            Ok(e) => e,
            Err(_) => return Ok(()), // e.g. zero observed classes
        };
        let m = enc.transform(&complete).expect("transform train");
        prop_assert_eq!(m.n_rows(), complete.n_rows());
        prop_assert!(m.data().iter().all(|v| v.is_finite()));
        prop_assert!(m.labels().iter().all(|&l| l < m.n_classes()));
        // transforming the *original* table (with missing cells) also works
        let m2 = enc.transform(&t).expect("transform dirty");
        prop_assert_eq!(m2.n_rows(), t.n_rows());
        prop_assert!(m2.data().iter().all(|v| v.is_finite()));
    }

    /// Split + gather preserves multiset of labels.
    #[test]
    fn split_preserves_rows(t in arb_table(), seed in any::<u64>()) {
        prop_assume!(t.n_rows() >= 2);
        let (train, test) = t.split(0.3, seed).expect("split");
        prop_assert_eq!(train.n_rows() + test.n_rows(), t.n_rows());
        let count = |tab: &Table| {
            let label = tab.label_index().expect("label");
            let col = tab.column(label).expect("col");
            (0..tab.n_rows()).filter(|&r| col.cat_str(r) == Some("pos")).count()
        };
        prop_assert_eq!(count(&train) + count(&test), count(&t));
    }

    /// Arbitrary string tables survive a CSV write/read cycle cell-for-cell,
    /// and no non-empty column flips kind (quoting pins categoricals).
    #[test]
    fn csv_round_trips_arbitrary_strings(
        cols in (1usize..4, 1usize..8).prop_flat_map(|(c, r)| {
            prop::collection::vec(
                prop::collection::vec(prop::option::of(arb_string()), r..r + 1),
                c..c + 1,
            )
        })
    ) {
        let t = string_table(cols);
        let text = write_csv(&t);
        let back = read_csv(&text).expect("written CSV must parse");
        prop_assert_eq!(back.n_rows(), t.n_rows());
        prop_assert_eq!(back.n_columns(), t.n_columns());
        for c in 0..t.n_columns() {
            let has_value = (0..t.n_rows()).any(|r| t.get(r, c).unwrap() != Value::Null);
            if has_value {
                prop_assert_eq!(
                    back.schema().field(c).unwrap().kind,
                    ColumnKind::Categorical,
                    "column {} flipped kind\nCSV:\n{}", c, text
                );
            }
            for r in 0..t.n_rows() {
                prop_assert_eq!(
                    t.get(r, c).unwrap(),
                    back.get(r, c).unwrap(),
                    "cell ({}, {})\nCSV:\n{}", r, c, text
                );
            }
        }
    }

    /// The parser never panics on arbitrary text — it parses or rejects.
    #[test]
    fn csv_parser_is_total(raw in prop::collection::vec(0usize..PALETTE.len(), 0..40)) {
        let text: String = raw.into_iter().map(|i| PALETTE[i]).collect();
        let _ = read_csv(&text); // Ok or Err, never a panic
    }

    /// The binary artifact codec (the engine's on-disk table form) is exact
    /// for arbitrary mixed tables, and every truncation of the stream fails
    /// closed.
    #[test]
    fn wire_codec_round_trips_arbitrary_tables(
        strings in prop::collection::vec(prop::option::of(arb_string()), 1..6),
        nums in prop::collection::vec(prop::option::of(-1e300f64..1e300), 1..6),
        cut in 0usize..1000
    ) {
        let n_rows = strings.len().min(nums.len());
        let fields = vec![FieldMeta::cat_feature("s"), FieldMeta::num_feature("x")];
        let mut t = Table::with_capacity(Schema::new(fields), n_rows);
        for r in 0..n_rows {
            t.push_row(vec![Value::from(strings[r].as_deref()), Value::from(nums[r])])
                .expect("row");
        }
        let mut out = Vec::new();
        encode_table_into(&mut out, &t);
        let mut r = Reader::new(&out);
        let back = decode_table_from(&mut r).expect("decode");
        prop_assert!(r.is_empty(), "trailing bytes");
        prop_assert_eq!(back, t);
        let cut = cut % out.len();
        prop_assert!(decode_table_from(&mut Reader::new(&out[..cut])).is_none());
    }

    /// Wire primitives are exact for arbitrary values and reject every
    /// truncation.
    #[test]
    fn wire_primitives_round_trip(x in any::<u64>(), f in any::<f64>(), s in arb_string()) {
        let mut out = Vec::new();
        push_u64(&mut out, x);
        push_f64(&mut out, f);
        push_str(&mut out, &s);
        let mut r = Reader::new(&out);
        prop_assert_eq!(take_u64(&mut r), Some(x));
        prop_assert_eq!(take_f64(&mut r).map(f64::to_bits), Some(f.to_bits()));
        let got = take_str(&mut r);
        prop_assert_eq!(got.as_deref(), Some(s.as_str()));
        prop_assert!(r.is_empty());
        for cut in 0..out.len() {
            let mut r = Reader::new(&out[..cut]);
            // reading the full triple from any prefix must fail somewhere
            let complete = take_u64(&mut r).is_some()
                && take_f64(&mut r).is_some()
                && take_str(&mut r).is_some();
            prop_assert!(!complete, "truncation at {} decoded fully", cut);
        }
    }

    /// An oversized length prefix is rejected before any allocation: a
    /// buffer declaring a huge string/byte length decodes to `None` no
    /// matter how large the declared size is.
    #[test]
    fn oversized_length_tokens_never_allocate(declared in any::<u64>(), junk in prop::collection::vec(any::<u8>(), 0..32)) {
        let mut out = Vec::new();
        push_u64(&mut out, declared);
        out.extend_from_slice(&junk);
        let mut r = Reader::new(&out);
        if let Some(bytes) = take_bytes(&mut r) {
            // only lengths actually backed by bytes may succeed
            prop_assert!(bytes.len() as u64 == declared && declared <= junk.len() as u64);
        }
    }

    /// Frame integrity: any single bit flip anywhere in a sealed frame is
    /// detected (FNV-1a's absorb step is injective per byte, so equal-length
    /// payload corruption always changes the checksum), and every
    /// truncation or extension fails closed.
    #[test]
    fn frame_detects_any_single_bit_flip(
        payload in prop::collection::vec(any::<u8>(), 0..200),
        flip_bit in 0usize..10_000,
        cut in 0usize..10_000
    ) {
        let framed = seal_frame(&payload);
        prop_assert_eq!(open_frame(&framed), Some(payload.as_slice()));
        prop_assert_eq!(framed.len(), FRAME_HEADER_LEN + payload.len());

        let mut corrupt = framed.clone();
        let bit = flip_bit % (framed.len() * 8);
        corrupt[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(open_frame(&corrupt).is_none(), "bit flip {} accepted", bit);

        let cut = cut % framed.len();
        prop_assert!(open_frame(&framed[..cut]).is_none(), "truncation at {} accepted", cut);
        let mut long = framed;
        long.push(0);
        prop_assert!(open_frame(&long).is_none(), "trailing byte accepted");
    }

    /// Arbitrary bytes fed to the table decoder parse or reject — never a
    /// panic, never a runaway allocation.
    #[test]
    fn table_decoder_is_total(raw in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_table_from(&mut Reader::new(&raw));
        let _ = open_frame(&raw);
        let _ = FeatureMatrix::decode_from(&mut Reader::new(&raw));
        let _ = Encoder::decode_from(&mut Reader::new(&raw));
    }

    /// The columnar arena is an exact relayout: every cell read through the
    /// row view (`read_row`/`row_vec`), the column view (`col`), and the
    /// strided scalar (`at`) is the same bits, missingness included — the
    /// one-hot groups hold exactly the 0/1 columns, and the sorted-index
    /// sidecars are true argsorts of the other columns.
    #[test]
    fn row_and_column_views_agree(t in arb_table()) {
        let complete = t.drop_rows_with_missing();
        if complete.n_rows() == 0 {
            return Ok(());
        }
        let classes = ["neg".to_string(), "pos".to_string()];
        let enc = match Encoder::fit_with_classes(&complete, &classes) {
            Ok(e) => e,
            Err(_) => return Ok(()),
        };
        let m = enc.transform(&t).expect("transform");
        let (n, d) = (m.n_rows(), m.n_cols());
        let mut row = vec![0.0; d];
        for i in 0..n {
            m.read_row(i, &mut row);
            let owned = m.row_vec(i);
            for j in 0..d {
                let through_col = m.col(j)[i];
                prop_assert_eq!(m.at(i, j).to_bits(), through_col.to_bits(), "at ({},{})", i, j);
                prop_assert_eq!(row[j].to_bits(), through_col.to_bits(), "read_row ({},{})", i, j);
                prop_assert_eq!(owned[j].to_bits(), through_col.to_bits(), "row_vec ({},{})", i, j);
                prop_assert_eq!(m.missing_at(i, j), m.missing_col(j)[i], "missing ({},{})", i, j);
            }
        }
        // one-hot groups: exactly the columns whose every value is bitwise
        // +0.0 or 1.0, cut into runs of consecutive columns with at most one
        // 1 per row, each row's hot position naming its 1
        let one_hot = m.one_hot_groups();
        for j in 0..d {
            let binary = m.col(j).iter().all(|v| v.to_bits() == 0 || *v == 1.0);
            prop_assert_eq!(one_hot.is_binary(j), binary, "column {} 0/1", j);
        }
        let mut grouped = 0;
        for (gi, g) in one_hot.groups().iter().enumerate() {
            prop_assert!(g.width() >= 1);
            grouped += g.width();
            prop_assert_eq!(g.hot().len(), n);
            for (s, c) in g.columns().enumerate() {
                prop_assert_eq!(one_hot.locate(c).map(|(h, at)| (h.start(), at)), Some((g.start(), s)));
                for (i, &v) in m.col(c).iter().enumerate() {
                    prop_assert_eq!(v == 1.0, usize::from(g.hot()[i]) == s, "group {} row {}", gi, i);
                }
            }
            prop_assert!(g.hot().iter().all(|&h| usize::from(h) <= g.width()));
        }
        prop_assert_eq!(grouped, (0..d).filter(|&j| one_hot.is_binary(j)).count());
        // plain sidecar: each other column's permutation, ascending by
        // (value, row); a 0/1 column has no list
        let sorted = m.sorted_cols();
        prop_assert_eq!(sorted.len(), d);
        for j in 0..d {
            let col = m.col(j);
            let idx = &sorted[j];
            if one_hot.is_binary(j) {
                prop_assert!(idx.is_empty(), "0/1 column {} has a list", j);
                continue;
            }
            prop_assert_eq!(idx.len(), n);
            let mut seen = vec![false; n];
            for w in idx.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                prop_assert!(
                    (col[a], a) <= (col[b], b),
                    "column {} not sorted by (value, row)", j
                );
            }
            for &i in idx.iter() {
                seen[i as usize] = true;
            }
            prop_assert!(seen.iter().all(|&s| s), "column {} is not a permutation", j);
        }
        // chained sidecar: each stored stage is a permutation, non-decreasing
        // in its own column, with ties keeping the previous stage's order; a
        // 0/1 column's stage is not stored, and is the previous stage stably
        // partitioned into its zero rows, then its one rows
        let chained = m.sorted_cols_chained();
        prop_assert_eq!(chained.len(), d);
        let mut prev: Vec<u32> = (0..n as u32).collect();
        for j in 0..d {
            let col = m.col(j);
            if one_hot.is_binary(j) {
                prop_assert!(chained[j].is_empty(), "0/1 chain stage {} stored", j);
                let (mut zeros, ones): (Vec<u32>, Vec<u32>) =
                    prev.iter().partition(|&&i| col[i as usize] == 0.0);
                zeros.extend(ones);
                prev = zeros;
                continue;
            }
            let idx = &chained[j];
            prop_assert_eq!(idx.len(), n);
            let mut prev_pos = vec![0; n];
            for (p, &i) in prev.iter().enumerate() {
                prev_pos[i as usize] = p;
            }
            for w in idx.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                prop_assert!(col[a] <= col[b], "chain stage {} not sorted", j);
                if col[a] == col[b] {
                    prop_assert!(
                        prev_pos[a] < prev_pos[b],
                        "chain stage {} tie broke the previous order", j
                    );
                }
            }
            let mut seen = vec![false; n];
            for &i in idx.iter() {
                seen[i as usize] = true;
            }
            prop_assert!(seen.iter().all(|&s| s), "chain stage {} is not a permutation", j);
            prev = idx.clone();
        }
    }

    /// Encoder and FeatureMatrix binary codecs are exact: decode(encode(x))
    /// is structurally identical and transforms/predicts identically.
    #[test]
    fn encoder_and_matrix_codecs_round_trip(t in arb_table()) {
        let complete = t.drop_rows_with_missing();
        if complete.n_rows() == 0 {
            return Ok(());
        }
        let classes = ["neg".to_string(), "pos".to_string()];
        let enc = match Encoder::fit_with_classes(&complete, &classes) {
            Ok(e) => e,
            Err(_) => return Ok(()),
        };
        let mut out = Vec::new();
        enc.encode_into(&mut out);
        let mut r = Reader::new(&out);
        let enc_back = Encoder::decode_from(&mut r).expect("encoder decode");
        prop_assert!(r.is_empty());
        prop_assert_eq!(&enc_back, &enc);

        let m = enc.transform(&t).expect("transform");
        let mut out = Vec::new();
        m.encode_into(&mut out);
        let mut r = Reader::new(&out);
        let m_back = FeatureMatrix::decode_from(&mut r).expect("matrix decode");
        prop_assert!(r.is_empty());
        prop_assert_eq!(m_back, m);
    }
}

/// The matrix wire format is pinned to these exact bytes: the canonical
/// row-major cell order (`i`-outer, `j`-inner) captured before the
/// in-memory layout went columnar. A byte of drift here means every
/// cached artifact store in the field silently turns into a cold re-run
/// — this test must only ever change together with a deliberate store
/// format bump.
#[test]
fn matrix_wire_golden_bytes_stay_stable() {
    #[rustfmt::skip]
    const GOLDEN: &[u8] = &[
        0x4d, 0x04, 0x02, 0x02, 0x01, 0x01, 0x00, 0x00, 0xff, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0xf0, 0xbf, 0x01, 0xff, 0x92, 0x24, 0x49, 0x92, 0x24,
        0x49, 0xc2, 0x3f, 0x00, 0x02, 0x02, 0x07, 0x01, 0x00, 0x01, 0x00, 0x01,
        0x78, 0x03, 0x63, 0x3d, 0x61,
    ];

    let schema = Schema::new(vec![
        FieldMeta::num_feature("x"),
        FieldMeta::cat_feature("c"),
        FieldMeta::label("y"),
    ]);
    let mut t = Table::new(schema);
    let rows: Vec<(Option<f64>, Option<&str>, &str)> = vec![
        (Some(1.5), Some("a"), "pos"),
        (None, Some("b"), "neg"),
        (Some(-2.0), Some("a"), "pos"),
        (Some(0.0), None, "neg"),
    ];
    for (x, c, y) in rows {
        t.push_row(vec![Value::from(x), Value::from(c), Value::from(y)]).expect("row");
    }
    let complete = t.drop_rows_with_missing();
    let classes = ["neg".to_string(), "pos".to_string()];
    let enc = Encoder::fit_with_classes(&complete, &classes).expect("fit");
    let m = enc.transform(&t).expect("transform");

    let mut out = Vec::new();
    m.encode_into(&mut out);
    assert_eq!(out, GOLDEN, "matrix wire bytes drifted from the committed format");

    // and the committed bytes decode to the exact same matrix
    let mut r = Reader::new(GOLDEN);
    let back = FeatureMatrix::decode_from(&mut r).expect("golden decodes");
    assert!(r.is_empty());
    assert_eq!(back, m);
    assert_eq!(back.n_rows(), 4);
    assert_eq!(back.n_cols(), 2);
    assert_eq!(back.labels(), &[1, 0, 1, 0]);
    assert!(back.missing_at(1, 0) && back.missing_at(3, 1));
}
