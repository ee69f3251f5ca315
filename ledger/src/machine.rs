//! The machine's measured ceilings, taken in the same invocation as the
//! numbers compared against them: STREAM-triad bandwidth and peak
//! multiply-add rate, on the workloads' worker count, in a child of their
//! own so the arrays are in no workload's peak RSS.

use crate::outcome::{ChildArgs, Outcome};
use std::hint::black_box;
use std::time::Instant;

/// Largest triad array the bench will allocate.
const ARRAY_CAP_BYTES: u64 = 1 << 30;

/// Size in bytes of cpu0's last-level cache from sysfs, if readable.
fn last_level_cache_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u32, u64)> = None;
    for entry in dir.flatten() {
        let p = entry.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// Parses sysfs cache sizes: `48K`, `2048K`, `32M`, or plain bytes.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// One triad pass `a = b + s·c` over `threads` disjoint slices; returns
/// the wall time in seconds.
fn triad_pass(a: &mut [f32], b: &[f32], c: &[f32], threads: usize) -> f64 {
    let chunk = a.len().div_ceil(threads).max(1);
    let t = Instant::now();
    std::thread::scope(|s| {
        for ((a, b), c) in a
            .chunks_mut(chunk)
            .zip(b.chunks(chunk))
            .zip(c.chunks(chunk))
        {
            s.spawn(move || {
                let k = black_box(3.0f32);
                for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                    *x = *y + k * *z;
                }
            });
        }
    });
    t.elapsed().as_secs_f64()
}

/// Lanes of independent multiply-add chains: twelve 4-lane registers'
/// worth, which the baseline register file holds and the compiler
/// vectorizes as one flat loop (nested per-register arrays stay scalar).
const MADD_LANES: usize = 48;

/// The product's strict kernels contract no FMAs, so the ceiling they
/// can reach is a multiply and an add per lane; with `+fma` in
/// `RUSTFLAGS` the compiler may fuse them here as it may there.
fn madd_chains(iters: u64) -> f32 {
    let mut acc = [1.0f32; MADD_LANES];
    let m = black_box([1.000_000_1f32; MADD_LANES]);
    let a = black_box([1.0e-7f32; MADD_LANES]);
    for _ in 0..iters {
        for l in 0..MADD_LANES {
            acc[l] = acc[l] * m[l] + a[l];
        }
    }
    acc.iter().sum()
}

pub fn run(args: &ChildArgs) -> Outcome {
    let mut out = Outcome::default();
    let threads = args.workers.max(1);

    // Triad: each array at least 4× the last-level cache, capped.
    let llc = last_level_cache_bytes();
    let wanted = llc.map_or(ARRAY_CAP_BYTES, |b| b.saturating_mul(4));
    let cap_binds = llc.is_none() || wanted > ARRAY_CAP_BYTES;
    let mut bytes = wanted.min(ARRAY_CAP_BYTES);
    if args.smoke {
        bytes /= 20;
    }
    let n = (bytes / 4).max(1024) as usize;
    let mut a = vec![0.0f32; n];
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    // First pass faults the pages in; the best of the next three is the
    // sustainable rate.
    triad_pass(&mut a, &b, &c, threads);
    let best = (0..3)
        .map(|_| triad_pass(&mut a, &b, &c, threads))
        .fold(f64::INFINITY, f64::min);
    out.check(a[n / 2] == 7.0, || {
        format!("triad wrote {} instead of 7", a[n / 2])
    });
    // Computed: two reads and one write of 4 B per element.
    let triad_gbps = 12.0 * n as f64 / best / 1e9;
    drop((a, b, c));

    // Peak multiply-add: every thread runs the chains at once.
    let iters = args.scaled(100_000_000, 1_000_000);
    let t = Instant::now();
    let sums: Vec<f32> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(move || madd_chains(iters)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("madd thread does not panic"))
            .collect()
    });
    let madd_s = t.elapsed().as_secs_f64();
    out.check(sums.iter().all(|s| s.is_finite()), || {
        "madd chains overflowed".into()
    });
    let flops = 2.0 * MADD_LANES as f64 * iters as f64 * threads as f64;

    out.metric("machine.triad_gbps", triad_gbps);
    out.metric("machine.fma_gflops", flops / madd_s / 1e9);
    out.metric("machine.triad_array_mb", (n * 4) as f64 / (1 << 20) as f64);
    out.metric(
        "machine.llc_mb",
        llc.map_or(0.0, |b| b as f64 / (1 << 20) as f64),
    );
    out.metric("machine.workers", threads as f64);
    out.count("triad_cap_binds", f64::from(u8::from(cap_binds)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_cache_sizes() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("266240K"), Some(266_240 << 10));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("K"), None);
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn triad_pass_computes_b_plus_3c_on_uneven_chunks() {
        let mut a = vec![0.0f32; 1001];
        let b = vec![1.0f32; 1001];
        let c = vec![2.0f32; 1001];
        triad_pass(&mut a, &b, &c, 3);
        assert!(a.iter().all(|&x| x == 7.0));
    }

    #[test]
    fn madd_chains_stay_finite() {
        assert!(madd_chains(1000).is_finite());
    }
}
