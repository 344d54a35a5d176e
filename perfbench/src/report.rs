//! Metric output, provenance, process statistics and a minimal JSON reader
//! for comparing saved results.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric; non-finite values are reported as 0 so the JSON stays valid.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        let value = if value.is_finite() { value } else { 0.0 };
        Self { name, unit, value }
    }
}

/// Where a result came from. Results whose fingerprints differ were measured
/// on different hosts or configurations and are not compared.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `(key, value)` pairs that must match for two results to be compared.
    pub fingerprint: Vec<(&'static str, String)>,
    /// Git revision of the measured tree (`unknown` outside a git checkout).
    pub git_rev: String,
    /// Workload seed.
    pub seed: u64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // Keep git from searching above the working directory.
    let cwd = std::env::current_dir().ok()?;
    let ceiling = cwd.parent().unwrap_or(&cwd).to_owned();
    let out = std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

impl Provenance {
    /// Collects the host fingerprint for a run with `threads` engine threads.
    pub fn collect(threads: usize, seed: u64) -> Self {
        let cores = std::thread::available_parallelism().map_or(0, usize::from);
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
        Self {
            fingerprint: vec![
                ("logical_cores", cores.to_string()),
                (
                    "kernel_tier",
                    invnorm_tensor::dispatch::active().name().to_string(),
                ),
                ("engine_threads", threads.to_string()),
                (
                    "rayon_num_threads",
                    std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
                ),
                (
                    "rustc",
                    command_line(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into()),
                ),
            ],
            git_rev: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            seed,
        }
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        let mut out = String::from("provenance");
        for (k, v) in &self.fingerprint {
            let _ = write!(out, " {k}={v:?}");
        }
        let _ = write!(out, " git_rev={} seed={}", self.git_rev, self.seed);
        out
    }
}

/// User + system CPU seconds of this process so far (all threads).
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in USER_HZ (100 per second).
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<f64> = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    fields.iter().sum::<f64>() / 100.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics)
    )
}

/// The saved result: the result line's content plus provenance and every
/// untraced point as `[level, slot, wall ms]`.
pub fn result_file(
    workload: &str,
    trace: bool,
    provenance: &Provenance,
    points: &[(usize, usize, f64)],
    line: &str,
) -> String {
    let fingerprint: Vec<String> = provenance
        .fingerprint
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"trace\": {trace}, \"seed\": {}, \"git_rev\": {}, \"fingerprint\": {{{}}}, \"points\": [{}], \"result\": {line}}}\n",
        json_string(workload),
        provenance.seed,
        json_string(&provenance.git_rev),
        fingerprint.join(", "),
        points
            .iter()
            .map(|(level, slot, ms)| format!("[{level}, {slot}, {ms}]"))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete document.
    ///
    /// # Errors
    ///
    /// Returns the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i == p.s.len() {
            Ok(v)
        } else {
            Err(format!("trailing data at byte {}", p.i))
        }
    }

    /// Member of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn err<T>(&self) -> Result<T, String> {
        Err(format!("JSON syntax error at byte {}", self.i))
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value()? else {
                        return self.err();
                    };
                    self.ws();
                    if !self.eat(":") {
                        return self.err();
                    }
                    members.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(",") {
                        return self.err();
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return self.err();
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.i) {
                        None => return self.err(),
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(Json::Str(out));
                        }
                        Some(b'\\') => {
                            let c = match self.s.get(self.i + 1) {
                                Some(b'n') => '\n',
                                Some(b't') => '\t',
                                Some(&c @ (b'"' | b'\\' | b'/')) => c as char,
                                Some(b'u') => {
                                    let hex = self.s.get(self.i + 2..self.i + 6);
                                    let code = hex
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                                        .and_then(char::from_u32);
                                    let Some(c) = code else { return self.err() };
                                    self.i += 4;
                                    c
                                }
                                _ => return self.err(),
                            };
                            out.push(c);
                            self.i += 2;
                        }
                        Some(_) => {
                            let rest = std::str::from_utf8(&self.s[self.i..])
                                .map_err(|e| e.to_string())?;
                            let c = rest.chars().next().expect("non-empty");
                            out.push(c);
                            self.i += c.len_utf8();
                        }
                    }
                }
            }
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|n| n.parse().ok())
                    .map(Json::Num)
                    .map_or_else(|| self.err(), Ok)
            }
            None => self.err(),
        }
    }
}

/// Compares two saved result files. Results with different fingerprints are
/// reported as not comparable instead of being compared.
///
/// # Errors
///
/// Returns a message when a file cannot be read or parsed.
pub fn compare(a_text: &str, b_text: &str) -> Result<String, String> {
    let a = Json::parse(a_text)?;
    let b = Json::parse(b_text)?;
    let mut out = String::new();
    let fa = a
        .get("fingerprint")
        .ok_or("first result has no fingerprint")?;
    let fb = b
        .get("fingerprint")
        .ok_or("second result has no fingerprint")?;
    if fa != fb {
        let _ = writeln!(out, "fingerprints differ; not comparing:");
        if let (Json::Obj(ma), Json::Obj(mb)) = (fa, fb) {
            for (k, va) in ma {
                let vb = fb.get(k);
                if vb != Some(va) {
                    let _ = writeln!(out, "  {k}: {va:?} vs {vb:?}");
                }
            }
            for (k, vb) in mb {
                if fa.get(k).is_none() {
                    let _ = writeln!(out, "  {k}: missing vs {vb:?}");
                }
            }
        }
        return Ok(out);
    }
    if a.get("workload") != b.get("workload") || a.get("trace") != b.get("trace") {
        return Ok("different workloads or trace modes; not comparing\n".into());
    }
    let metrics = |r: &Json| match r.get("result").and_then(|r| r.get("metrics")) {
        Some(Json::Obj(m)) => m.clone(),
        _ => Vec::new(),
    };
    let mb = metrics(&b);
    for (name, va) in metrics(&a) {
        let x = va.get("value").and_then(Json::as_f64);
        let unit = va.get("unit").and_then(Json::as_str).unwrap_or("");
        let y = mb
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.get("value"))
            .and_then(Json::as_f64);
        match (x, y) {
            (Some(x), Some(y)) if x != 0.0 => {
                let _ = writeln!(
                    out,
                    "{name:<36} {x:>14.6} {y:>14.6} {unit:<8} ratio {:.4}",
                    y / x
                );
            }
            (Some(x), Some(y)) => {
                let _ = writeln!(out, "{name:<36} {x:>14.6} {y:>14.6} {unit}");
            }
            _ => {
                let _ = writeln!(out, "{name:<36} missing in one result");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_of_the_result_line() {
        let line = result_line(
            true,
            12,
            1,
            &[
                Metric::new("point_ms_p50", "ms", 1.25),
                Metric::new("x", "s", f64::NAN),
            ],
        );
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(12.0));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("point_ms_p50")
                .and_then(|p| p.get("value"))
                .and_then(Json::as_f64),
            Some(1.25)
        );
        assert_eq!(
            m.get("x")
                .and_then(|p| p.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(Json::parse("{\"a\": [1, 2,]}").is_err());
        assert_eq!(
            Json::parse("\"a\\u0041\\\"\"").unwrap(),
            Json::Str("aA\"".into())
        );
    }

    #[test]
    fn compare_refuses_different_fingerprints() {
        let prov = |tier: &str| Provenance {
            fingerprint: vec![("kernel_tier", tier.into()), ("logical_cores", "2".into())],
            git_rev: "abc".into(),
            seed: 1,
        };
        let line = result_line(true, 1, 0, &[Metric::new("instances_per_s", "1/s", 10.0)]);
        let faster = result_line(true, 1, 0, &[Metric::new("instances_per_s", "1/s", 12.0)]);
        let a = result_file("paper_fig5", false, &prov("avx2"), &[(0, 1, 1.5)], &line);
        let b = result_file("paper_fig5", false, &prov("avx512"), &[], &faster);
        let c = result_file("paper_fig5", false, &prov("avx2"), &[(1, 0, 2.0)], &faster);
        let differ = compare(&a, &b).unwrap();
        assert!(differ.contains("fingerprints differ"), "{differ}");
        assert!(differ.contains("kernel_tier"), "{differ}");
        let same = compare(&a, &c).unwrap();
        assert!(same.contains("ratio 1.2000"), "{same}");
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
