//! Order statistics over timing samples.

/// The `q`-quantile of `xs` by linear interpolation between closest ranks
/// (the rule Python's `statistics.quantiles(..., method="inclusive")`
/// uses). Returns 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    v[lo] + (v[hi] - v[lo]) * frac
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Milliseconds in a [`std::time::Duration`].
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nanoseconds in a [`std::time::Duration`], as a float.
pub fn ns(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one) in MB, or 0 if `/proc` cannot be read.
pub fn vm_hwm_mb(pid: &str) -> f64 {
    let path = format!("/proc/{pid}/status");
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has consumed so far, all threads included (also
/// threads that have exited), in seconds; 0 if the clock cannot be read.
///
/// Time the hypervisor takes from the vCPUs (steal) is not in it, so on a
/// shared host it measures the work done, where wall time also measures
/// the neighbours.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on 64-bit Linux `struct timespec` is two `long`s, laid out
    // as `Timespec`; `clock_gettime` only writes one through the valid,
    // exclusively borrowed pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn process_cpu_time_grows_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - t0 < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }
}
