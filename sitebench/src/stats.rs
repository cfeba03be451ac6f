//! Order statistics over timing samples, and the in-memory span
//! recorder the traced run writes out at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
/// Zero for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median, quartiles and p99 of a sample, with its size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p25: quantile(&v, 0.25),
            p50: quantile(&v, 0.50),
            p75: quantile(&v, 0.75),
            p99: quantile(&v, 0.99),
        }
    }

    /// `median [q1, q3] (n=…)`, each value scaled by `k`.
    pub fn show(&self, k: f64, digits: usize) -> String {
        format!(
            "{:.d$} [{:.d$}, {:.d$}] (n={})",
            self.p50 * k,
            self.p25 * k,
            self.p75 * k,
            self.n,
            d = digits
        )
    }
}

/// What one measured call cost: host wall seconds, and the CPU seconds
/// the whole process (pool workers included) spent meanwhile.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    pub wall: f64,
    pub cpu: f64,
}

/// The wall (`cpu == false`) or CPU seconds of each sample.
pub fn secs(samples: &[Cost], cpu: bool) -> Vec<f64> {
    samples
        .iter()
        .map(|c| if cpu { c.cpu } else { c.wall })
        .collect()
}

/// One recorded span: a named interval, and the span open around it.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Times calls and, when enabled, records each as a span. Spans stay in
/// memory until [`Tracer::chrome_json`] renders them at exit.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    /// Runs `f`, returning its result and wall seconds. Spans that `f`
    /// opens through the tracer it receives become children of this one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let start = Instant::now();
        if !self.enabled {
            let r = f(self);
            return (r, start.elapsed().as_secs_f64());
        }
        let id = self.spans.len() as u32;
        let start_ns = (start - self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[id as usize].end_ns = (end - self.origin).as_nanos() as u64;
        (r, (end - start).as_secs_f64())
    }

    /// Per span name: count, total and self milliseconds (self = the
    /// span's duration minus what its direct children cover), in order
    /// of first appearance.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, &kids) in self.spans.iter().zip(&child_ns) {
            let total = (s.end_ns - s.start_ns) as f64 / 1e6;
            let own = (s.end_ns - s.start_ns).saturating_sub(kids) as f64 / 1e6;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    /// The spans as chrome-tracing JSON (complete events, microseconds).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.p25, s.p50, s.p75), (5, 2.0, 3.0, 4.0));
        assert_eq!(Summary::of(&[]).p50, 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let rows = t.self_times();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
        assert!(outer.2 >= inner.2 && outer.3 < inner.2);
        assert!(t.chrome_json().contains("\"parent\":0"));
    }
}
