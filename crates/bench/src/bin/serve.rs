//! `cleanml-serve` — the resident CleanML engine as a daemon.
//!
//! One long-lived [`cleanml_engine::Engine`] owns the worker pool, the
//! warm in-memory memo and the persistent artifact store; the `--listen`
//! socket serves *both* peer kinds on one port:
//!
//! * HTTP clients (`cleanml-query`, curl) scrape `GET /metrics` and use
//!   the results gateway: `POST /studies` to submit a study or one cell,
//!   `GET /studies/:id` to poll, `GET /studies/:id/r1|r2|r3[.csv|.json]`
//!   to filter/order/page rows — concurrent submissions dedupe into the
//!   same in-flight tasks, and repeat queries answer from the warm cache
//!   in milliseconds;
//! * `cleanml-worker` processes lease ready tasks and ship artifacts
//!   back, exactly as against a `--listen` study run.
//!
//! ```sh
//! cargo run --release -p cleanml-bench --bin cleanml-serve -- \
//!     --listen 127.0.0.1:7401 --workers 8 \
//!     --cache-dir serve_cache --cache-max-bytes 2g --http-token s3cret
//! cargo run --release -p cleanml-bench --bin cleanml-query -- \
//!     --connect 127.0.0.1:7401 --http-token s3cret --quick --errors outliers
//! curl -H 'Authorization: Bearer s3cret' \
//!     'http://127.0.0.1:7401/studies/1/r1.json?model=logistic_regression&limit=10'
//! ```
//!
//! `--http-token` puts the gateway's `/studies` routes behind a bearer
//! token (`/metrics` stays open). There is still no TLS — front the
//! listener with a reverse proxy before leaving trusted networks.

use std::time::Duration;

use cleanml_bench::{parse_engine_config, Cli, ENGINE_FLAGS, WORKERS_FLAG};
use cleanml_engine::Engine;

const CLI: Cli =
    Cli { name: "cleanml-serve", positionals: &[], groups: &[WORKERS_FLAG, ENGINE_FLAGS] };

fn main() {
    let cfg = CLI.parse(|args, _| {
        let cfg = parse_engine_config(args)?;
        match cfg.listen {
            Some(_) => Ok(cfg),
            None => Err("--listen HOST:PORT is required".into()),
        }
    });
    let http_auth = cfg.http_token.is_some();
    let engine = Engine::new(cfg);
    let addr = engine.remote_addr().expect("--listen was required above");
    println!("[cleanml-serve] serving on {addr} with {} workers", engine.workers());
    match engine.disk_store() {
        Some(store) => println!(
            "[cleanml-serve] artifact store: {} entries, {} B warm",
            store.len(),
            store.total_bytes()
        ),
        None => println!("[cleanml-serve] no --cache-dir: memo is in-memory only"),
    }
    println!(
        "[cleanml-serve] query:  cleanml-query --connect {addr} [--http-token TOK] [--quick] \
         [--errors LIST]"
    );
    println!("[cleanml-serve] worker: cleanml-worker --connect {addr}");
    println!(
        "[cleanml-serve] http:   http://{addr}/metrics | /studies ({})",
        if http_auth { "bearer auth" } else { "no auth" }
    );

    // The engine's hub service runs on its own threads; this thread only
    // keeps the process (and with it the warm memo) alive.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
