//! Shared harness utilities.

/// Runs `f` `iters` times, returning the median total nanoseconds.
pub fn median_ns(iters: usize, mut f: impl FnMut() -> u64) -> u64 {
    let mut samples: Vec<u64> = (0..iters.max(1)).map(|_| f()).collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Formats nanoseconds human-readably.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Formats a rate (per second) human-readably.
pub fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.2} M/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.1} K/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.0} /s")
    }
}

/// Writes a DOT file under `out/`, returning its path (best effort).
pub fn write_dot(name: &str, dot: &str) -> Option<String> {
    let dir = std::path::Path::new("out");
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("{name}.dot"));
    std::fs::write(&path, dot).ok()?;
    Some(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_stable() {
        let mut v = [5u64, 1, 9].into_iter();
        let m = median_ns(3, || v.next().unwrap());
        assert_eq!(m, 5);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(1_500), "1.50 us");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_rate(2_680_000.0), "2.68 M/s");
    }
}
