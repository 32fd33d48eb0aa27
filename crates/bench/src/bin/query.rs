//! `cleanml-query` — HTTP client for a resident `cleanml-serve` engine.
//!
//! Submits a whole study or one `(dataset, error type, method, model)`
//! cell through the results gateway (`POST /studies`), shows progress on
//! stderr while the engine computes (or answers straight from its warm
//! cache), and prints the R1/R2/R3 CSV text to stdout — paged out of
//! `GET /studies/:id/r1|r2|r3.csv`, byte-identical to the `study`
//! binary's files:
//!
//! ```sh
//! # whole study for two error types
//! cleanml-query --connect 127.0.0.1:7401 --quick --errors outliers,duplicates
//!
//! # one cell: dataset / detection / repair / model
//! cleanml-query --connect 127.0.0.1:7401 --quick --errors outliers \
//!     --cell "Sensor/IQR/Mean/Logistic Regression" --cache-stats
//! ```
//!
//! `--http-token TOK` sends the gateway's bearer token. `--cache-stats`
//! appends an accounting line built from two `/metrics` scrapes, one
//! before the submission and one after it finished: it reports what the
//! server counted while the query ran, which is exact for a lone client.
//! A warm repeat of the same request reports `executed_train=0` — the
//! memo answered, no model was retrained.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cleanml_bench::{
    cache_stats_line, flag_value, parse_config, parse_error_types, profile_name,
    stats_from_registry_delta, text_value,
};
use cleanml_core::schema::ErrorType;
use cleanml_engine::telemetry::exposition_sample;
use cleanml_engine::StatsSnapshot;

/// Rows per page: the gateway's largest page, so a quick study's
/// relations come out in one request each.
const PAGE_ROWS: usize = 10_000;

/// How often the submission's status is polled.
const POLL: Duration = Duration::from_millis(50);

fn usage() -> ! {
    eprintln!(
        "usage: cleanml-query --connect HOST:PORT [--quick|--standard|--paper]\n\
         \u{20}      [--splits N] [--seed N] [--errors LIST] [--cell D/DET/REP/MODEL]\n\
         \u{20}      [--http-token TOK] [--cache-stats] [--retry SECS]\n\
         submits a study (or one cell) to a cleanml-serve engine over HTTP and\n\
         prints the CSVs; LIST is comma-separated error types (default: all\n\
         five), a --cell names dataset/detection/repair/model and needs exactly\n\
         one error type"
    );
    std::process::exit(2);
}

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    addr: String,
    /// The form-encoded `POST /studies` body.
    form: String,
    token: Option<String>,
    retry: Duration,
    cache_stats: bool,
}

/// Parses the command line (program name excluded); `Ok(None)` without
/// `--connect`.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let Some(addr) = flag_value(args, "--connect", "HOST:PORT", text_value)? else {
        return Ok(None);
    };
    let cfg = parse_config(args)?;
    let error_types = flag_value(args, "--errors", "error types", parse_error_types)?
        .unwrap_or_else(|| ErrorType::all().to_vec());
    let names: Vec<&str> = error_types.iter().map(|et| et.name()).collect();
    let mut form = format!(
        "errors={}&profile={}&splits={}&seed={}",
        form_encode(&names.join(",")),
        profile_name(args),
        cfg.n_splits,
        cfg.base_seed
    );
    if let Some(cell) = flag_value(args, "--cell", "DATASET/DETECTION/REPAIR/MODEL", text_value)? {
        if cell.split('/').count() != 4 {
            return Err(format!("--cell expects DATASET/DETECTION/REPAIR/MODEL, got `{cell}`"));
        }
        if error_types.len() != 1 {
            return Err("a --cell query needs exactly one --errors entry".into());
        }
        form.push_str(&format!("&cell={}", form_encode(&cell)));
    }
    Ok(Some(Args {
        addr,
        form,
        token: flag_value(args, "--http-token", "a non-empty token", text_value)?,
        retry: Duration::from_secs(
            flag_value(args, "--retry", "whole seconds", |v| v.parse().ok())?.unwrap_or(30),
        ),
        cache_stats: args.iter().any(|a| a == "--cache-stats"),
    }))
}

/// Percent-encodes a form value: everything but unreserved characters.
fn form_encode(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for b in value.bytes() {
        if b.is_ascii_alphanumeric() || b"-_.~".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// The string value of `"key":"…"` in a flat JSON object.
fn json_str(body: &str, key: &str) -> Option<String> {
    let start = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let mut out = String::new();
    let mut chars = body[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
}

/// The number value of `"key":N` in a flat JSON object.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let start = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// One gateway: every request is its own `Connection: close` exchange.
struct Gateway {
    addr: String,
    token: Option<String>,
}

impl Gateway {
    /// Sends one request and returns the status code and body.
    fn request(&self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let fail = |e: std::io::Error| format!("{method} {path}: {e}");
        let mut stream = TcpStream::connect(&self.addr).map_err(fail)?;
        let auth =
            self.token.as_ref().map_or(String::new(), |t| format!("Authorization: Bearer {t}\r\n"));
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\n{auth}\
             Content-Type: application/x-www-form-urlencoded\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        stream.write_all(format!("{head}{body}").as_bytes()).map_err(fail)?;
        let mut response = String::new();
        stream.read_to_string(&mut response).map_err(fail)?;
        let (head, body) = response
            .split_once("\r\n\r\n")
            .ok_or_else(|| format!("{method} {path}: malformed response"))?;
        let status = head.split(' ').nth(1).and_then(|s| s.parse().ok());
        let status = status.ok_or_else(|| format!("{method} {path}: malformed status line"))?;
        Ok((status, body.to_string()))
    }

    /// A request that must answer `want`; anything else is the server's
    /// refusal, reported with its error message.
    fn expect(&self, want: u16, method: &str, path: &str, body: &str) -> Result<String, String> {
        let (status, body) = self.request(method, path, body)?;
        if status == want {
            return Ok(body);
        }
        let reason = json_str(&body, "error").unwrap_or(body);
        Err(format!("{method} {path} answered {status}: {}", reason.trim_end()))
    }

    fn scrape(&self) -> Result<String, String> {
        self.expect(200, "GET", "/metrics", "")
    }
}

/// Waits up to `retry` for the server to accept connections: in a
/// scripted launch the daemon may still be starting.
fn await_server(addr: &str, retry: Duration) -> Result<(), String> {
    let deadline = Instant::now() + retry;
    loop {
        match TcpStream::connect(addr) {
            Ok(_) => return Ok(()),
            Err(e) if Instant::now() < deadline => {
                eprintln!("[query] {addr} not ready ({e}); retrying");
                std::thread::sleep(Duration::from_millis(250));
            }
            Err(e) => return Err(format!("cannot connect to {addr}: {e}")),
        }
    }
}

/// Submits the study, follows it to completion and returns its CSV text.
fn run(gw: &Gateway, form: &str) -> Result<String, String> {
    let created = gw.expect(201, "POST", "/studies", form)?;
    let id = json_u64(&created, "id").ok_or_else(|| format!("no study id in {created}"))?;
    let mut announced = false;
    loop {
        let status = gw.expect(200, "GET", &format!("/studies/{id}"), "")?;
        let (done, to_run) = (json_u64(&status, "done"), json_u64(&status, "to_run"));
        if !announced {
            eprintln!("[query] study {id}: {} tasks to run", to_run.unwrap_or(0));
            announced = true;
        }
        eprint!("\r[query] {}/{} tasks done", done.unwrap_or(0), to_run.unwrap_or(0));
        match json_str(&status, "state").as_deref() {
            Some("done") => break,
            Some("failed") => {
                eprintln!();
                return Err(json_str(&status, "error").unwrap_or(status));
            }
            _ => std::thread::sleep(POLL),
        }
    }
    eprintln!();
    // Every page repeats the header; a page shorter than PAGE_ROWS is
    // the relation's last.
    let mut csv = String::new();
    for table in ["r1", "r2", "r3"] {
        for offset in (0..).step_by(PAGE_ROWS) {
            let path = format!("/studies/{id}/{table}.csv?limit={PAGE_ROWS}&offset={offset}");
            let page = gw.expect(200, "GET", &path, "")?;
            let (header, rows) = page.split_once('\n').unwrap_or((&page, ""));
            if offset == 0 {
                csv.push_str(header);
                csv.push('\n');
            }
            csv.push_str(rows);
            if rows.lines().count() < PAGE_ROWS {
                break;
            }
        }
    }
    Ok(csv)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(Some(args)) => args,
        Ok(None) => usage(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let gw = Gateway { addr: args.addr.clone(), token: args.token.clone() };
    let outcome = await_server(&args.addr, args.retry).and_then(|()| {
        let before = if args.cache_stats { Some(gw.scrape()?) } else { None };
        let csv = run(&gw, &args.form)?;
        print!("{csv}");
        if let Some(before) = before {
            let after = gw.scrape()?;
            let snapshot = |text: &str| {
                StatsSnapshot::from_exposition(text).ok_or("unreadable /metrics exposition")
            };
            let delta = snapshot(&after)?.since(&snapshot(&before)?);
            let (stats, run) = stats_from_registry_delta(&delta);
            let totals = (
                exposition_sample(&after, "cleanml_store_bytes").unwrap_or(0),
                exposition_sample(&after, "cleanml_store_entries").unwrap_or(0) as usize,
            );
            // the slowest-tasks table lives in the server's registry and
            // has no exposition series
            let cv = (delta.cv_fits, delta.fold_reuse);
            println!("{}", cache_stats_line(&stats, Some(totals), &run, cv, &[]));
        }
        Ok(())
    });
    if let Err(e) = outcome {
        eprintln!("[query] {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Option<Args>, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn flags_build_the_submission_form() {
        let args = parse("--connect 127.0.0.1:7401 --quick --splits 2 --errors outliers")
            .unwrap()
            .unwrap();
        assert_eq!(args.addr, "127.0.0.1:7401");
        assert_eq!(args.form, "errors=Outliers&profile=quick&splits=2&seed=1");
        assert_eq!(
            (args.token, args.retry, args.cache_stats),
            (None, Duration::from_secs(30), false)
        );

        let args = parse(
            "--connect h:1 --errors inconsistencies --cell University/OpenRefine/Merge/KNN \
             --http-token ci-secret --retry 5 --cache-stats --seed 9",
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            args.form,
            "errors=Inconsistencies&profile=standard&splits=20&seed=9\
             &cell=University%2FOpenRefine%2FMerge%2FKNN"
        );
        assert_eq!(args.token.as_deref(), Some("ci-secret"));
        assert_eq!((args.retry, args.cache_stats), (Duration::from_secs(5), true));

        // every error type by default, names encoded
        let all = parse("--connect h:1").unwrap().unwrap();
        assert!(all.form.starts_with("errors=Missing%20Values%2COutliers%2C"), "{}", all.form);
        assert_eq!(parse("--quick").unwrap(), None, "no --connect: usage");
    }

    #[test]
    fn bad_values_are_errors_not_defaults() {
        for bad in [
            "--connect h:1 --retry soon",
            "--connect h:1 --retry",
            "--connect h:1 --splits 1",
            "--connect h:1 --seed x",
            "--connect h:1 --errors bogus",
            "--connect h:1 --errors outliers --cell a/b/c",
            "--connect h:1 --errors outliers,duplicates --cell a/b/c/d",
            "--connect h:1 --http-token",
            "--connect --quick",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_fields_are_read_from_flat_objects() {
        let body = r#"{"id":12,"errors":["Outliers"],"state":"failed","done":3,"to_run":40,"error":"say \"no\""}"#;
        assert_eq!(json_u64(body, "id"), Some(12));
        assert_eq!(json_u64(body, "to_run"), Some(40));
        assert_eq!(json_str(body, "state").as_deref(), Some("failed"));
        assert_eq!(json_str(body, "error").as_deref(), Some("say \"no\""));
        assert_eq!(json_u64(body, "missing"), None);
        assert_eq!(json_str(body, "id"), None, "a number is not a string");
    }
}
