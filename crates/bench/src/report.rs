//! The one record every `repro` bench writes, and the fixtures the benches
//! share.
//!
//! [`write()`] emits `BENCH_<name>.json` in the working directory: the
//! bench's name, a `host` block (CPU count, crypto CPU flags, git rev and
//! whether the working tree was clean), whether it was a smoke run, then
//! the bench's own sections. Values are built with [`text`], [`num`],
//! [`obj`] and [`list`].

use std::path::Path;
use std::time::Duration;

use speed_wire::{AppId, BatchItem, BatchStatus, CompTag, Message, Record};

use crate::harness::Timing;

/// A JSON string literal of `s`.
pub fn text(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number rounded to three decimals, trailing zeros dropped; a
/// value that is not finite is written as `null`.
pub fn num(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    format!("{x:.3}").trim_end_matches('0').trim_end_matches('.').into()
}

/// A one-line JSON object of `fields`, in order.
pub fn obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}: {v}", text(k))).collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON array with one item per line.
pub fn list(items: Vec<String>) -> String {
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

/// The two fields of a timed phase, in milliseconds: `wall_ms`, real
/// wall-clock time, and `modeled_ms`, the platform clock's simulated SGX
/// time, kept apart.
pub fn timed_ms(timing: Timing) -> [(&'static str, String); 2] {
    let ms = |d: Duration| num(d.as_secs_f64() * 1e3);
    [("wall_ms", ms(timing.wall)), ("modeled_ms", ms(timing.modeled))]
}

/// The same two times per operation over `ops` operations, in
/// microseconds: `wall_us_per_op` and `modeled_us_per_op`.
pub fn per_op_us(timing: Timing, ops: u64) -> [(&'static str, String); 2] {
    let us = |d: Duration| num(d.as_secs_f64() * 1e6 / ops.max(1) as f64);
    [("wall_us_per_op", us(timing.wall)), ("modeled_us_per_op", us(timing.modeled))]
}

/// Writes `BENCH_<name>.json` to the working directory: the bench's name,
/// the `host` block (CPU count, crypto CPU flags, git rev, clean tree),
/// the smoke flag, then `sections`.
pub fn write(name: &str, smoke: bool, sections: &[(&str, String)]) {
    let flags: Vec<String> = cpu_crypto_flags().into_iter().map(text).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = obj(&[
        ("nproc", nproc.to_string()),
        ("cpu_crypto_flags", format!("[{}]", flags.join(", "))),
        ("git_rev", text(&git_rev())),
        ("git_clean", git_clean(git_status().as_deref()).into()),
    ]);
    let mut fields = vec![
        format!("\"bench\": {}", text(name)),
        format!("\"host\": {host}"),
        format!("\"smoke\": {smoke}"),
    ];
    fields.extend(sections.iter().map(|(k, v)| format!("{}: {v}", text(k))));
    let path = format!("BENCH_{name}.json");
    let json = format!("{{\n  {}\n}}\n", fields.join(",\n  "));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

/// The `flags` line of the first processor in /proc/cpuinfo, filtered to
/// the features the crypto and hashing paths can use.
fn cpu_crypto_flags() -> Vec<&'static str> {
    const WANTED: [&str; 7] =
        ["aes", "pclmulqdq", "sha_ni", "avx2", "avx512f", "vaes", "vpclmulqdq"];
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .and_then(|l| l.split(':').nth(1))
        .unwrap_or("");
    let present: Vec<&str> = flags.split_whitespace().collect();
    WANTED.into_iter().filter(|f| present.contains(f)).collect()
}

/// The commit checked out in the working directory, if it is a git
/// checkout; read from `.git` directly so no process is spawned.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map_or_else(|| "unknown".into(), str::to_string)
}

/// The output of `git status --porcelain` in the working directory, or
/// `None` if git could not run there. The `BENCH_*.json` records are left
/// out: the benches write them, so a bench run right after another still
/// finds the tree clean.
fn git_status() -> Option<Vec<u8>> {
    let out = std::process::Command::new("git")
        .args(["status", "--porcelain", "--", ".", ":(exclude)BENCH_*.json"])
        .output()
        .ok()?;
    out.status.success().then_some(out.stdout)
}

/// Whether the working tree matched `git_rev`, from [`git_status`]'s
/// output: `true` when it printed nothing, `false` when it listed a
/// change, `null` when git could not run.
fn git_clean(porcelain: Option<&[u8]>) -> &'static str {
    match porcelain {
        None => "null",
        Some([]) => "true",
        Some(_) => "false",
    }
}

/// A tag unique per `i` whose lead byte spreads over the store's shards.
pub fn bench_tag(i: u64) -> CompTag {
    let mut bytes = [0u8; 32];
    bytes[0] = (i % 251) as u8;
    bytes[1..9].copy_from_slice(&i.to_le_bytes());
    CompTag::from_bytes(bytes)
}

/// A record whose result is `len` bytes, every byte `fill`.
pub fn bench_record(len: usize, fill: u8) -> Record {
    Record {
        challenge: vec![fill; 32],
        wrapped_key: [fill; 16],
        nonce: [fill; 12],
        boxed_result: vec![fill; len],
    }
}

/// A `BatchRequest` of the one `item`: the form a single GET or PUT takes
/// on the store's batch path.
pub fn one(app: AppId, item: BatchItem) -> Message {
    Message::BatchRequest { app, items: vec![item] }
}

/// The status of the single result in `response`, or `None` if it is not a
/// `BatchResponse` of one result.
pub fn status(response: &Message) -> Option<BatchStatus> {
    match response {
        Message::BatchResponse(results) if results.len() == 1 => Some(results[0].status),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_render_as_json() {
        assert_eq!(text("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(1941.0), "1941");
        assert_eq!(num(0.0123), "0.012");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(
            obj(&[("a", num(1.5)), ("b", text("x"))]),
            "{\"a\": 1.5, \"b\": \"x\"}"
        );
        assert_eq!(list(vec!["1".into(), "2".into()]), "[\n    1,\n    2\n  ]");
        let timing =
            Timing { wall: Duration::from_micros(1500), modeled: Duration::ZERO };
        assert_eq!(timed_ms(timing)[0], ("wall_ms", "1.5".to_string()));
        assert_eq!(per_op_us(timing, 4)[1], ("modeled_us_per_op", "0".to_string()));
    }

    #[test]
    fn git_clean_reads_the_porcelain_status() {
        assert_eq!(git_clean(Some(b"")), "true");
        assert_eq!(git_clean(Some(b" M crates/bench/src/report.rs\n")), "false");
        assert_eq!(git_clean(Some(b"?? tests/new.rs\n")), "false");
        assert_eq!(git_clean(None), "null");
    }
}
