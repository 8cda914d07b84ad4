//! Host-speed reference and CPU clocks.
//!
//! A shared host's speed drifts by tens of percent over seconds to
//! minutes with the neighbours' load, in two ways: the hypervisor takes
//! the vCPUs away for a while (steal), and while they run, the shared
//! caches and cores run them slower. The benchmark therefore times its
//! points in process CPU time, which leaves out steal and every other
//! wait for a core, and scales that CPU time by a reference: a fixed
//! piece of work that calls no simulator code — sorts of small arrays,
//! ordered-map and hash-map churn, the branchy, cache-resident kind of
//! work the simulator does — timed in its own thread's CPU time before
//! every point. Multiplying a CPU time by `REF_MS` over the reference's
//! mean expresses it at reference speed, the speed at which one
//! reference run takes exactly `REF_MS` of CPU. A change to the
//! simulator moves the scaled figures as it moves the raw ones; a change
//! in host speed moves the reference too and largely cancels.
//!
//! Over six 25-second `em3d_scale` runs on a 2-core Xeon VM, one of them
//! in a spell of heavy steal, the spread (IQR over median) of the median
//! point time was 0.17 in wall time, 0.11 in wall time scaled by the
//! reference's wall time, 0.07 in CPU time and 0.04 in CPU time scaled
//! as here.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::os::raw::{c_int, c_long};

/// The reference CPU time that defines reference speed, in ms (about
/// what one reference run takes on that 2-core Xeon VM).
pub const REF_MS: f64 = 1.25;

/// Linux `clock_gettime` clock ids.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

fn clock_s(clock: c_int) -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a live, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// CPU seconds this process has used so far, over all its threads
/// (exited ones included).
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Sorted blocks per run.
const SORTS: usize = 16;
/// Words per sorted block and per map pass.
const BLOCK: usize = 2048;

/// The reference's input words.
pub struct Reference {
    words: Vec<u64>,
}

fn mix(mut x: u64) -> u64 {
    x ^= x >> 31;
    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 29)
}

/// One reference run over `words`.
fn work(words: &[u64]) {
    let mut acc = 0u64;
    let mut v = vec![0u64; BLOCK];
    for r in 0..SORTS {
        v.copy_from_slice(&words[r * BLOCK..(r + 1) * BLOCK]);
        v.sort_unstable();
        acc ^= v[r];
    }
    let mut ordered = BTreeMap::new();
    for (i, &k) in words[..BLOCK].iter().enumerate() {
        ordered.insert(k & 0xffff, i as u64);
    }
    for &k in &words[BLOCK..2 * BLOCK] {
        acc ^= ordered.get(&(k & 0xffff)).copied().unwrap_or(1);
        ordered.remove(&(k & 0xfff0));
    }
    // A fixed-key hasher: every run hashes alike.
    let mut hashed: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, &k) in words[2 * BLOCK..3 * BLOCK].iter().enumerate() {
        *hashed.entry(k & 0xffff).or_insert(0) += i as u64;
    }
    for &k in &words[3 * BLOCK..4 * BLOCK] {
        acc ^= hashed.get(&(k & 0xffff)).copied().unwrap_or(1);
    }
    black_box(acc);
}

impl Reference {
    /// The reference with its fixed input.
    pub fn new() -> Reference {
        let words = (0..(SORTS * BLOCK) as u64).map(mix).collect();
        Reference { words }
    }

    /// Runs the reference once; returns the CPU time it took, in ms.
    pub fn run_ms(&self) -> f64 {
        let t = clock_s(CLOCK_THREAD_CPUTIME_ID);
        work(&self.words);
        (clock_s(CLOCK_THREAD_CPUTIME_ID) - t) * 1e3
    }
}

/// The factor that scales CPU times measured beside `ref_ms` (reference
/// run times) to reference speed: `REF_MS` over their mean.
pub fn scale(ref_ms: &[f64]) -> f64 {
    REF_MS * ref_ms.len() as f64 / ref_ms.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_ref_ms_over_the_mean() {
        assert_eq!(scale(&[REF_MS, REF_MS]), 1.0);
        assert_eq!(scale(&[REF_MS * 1.5, REF_MS * 2.5]), 0.5);
    }

    #[test]
    fn process_cpu_time_counts_work() {
        let t = process_cpu_s();
        Reference::new().run_ms();
        assert!(process_cpu_s() > t);
    }

    #[test]
    fn the_input_covers_every_pass() {
        let r = Reference::new();
        assert!(r.words.len() >= 4 * BLOCK);
        assert!(r.run_ms() > 0.0);
    }
}
