//! Thread affinity via raw `sched_setaffinity`/`sched_getaffinity`
//! syscalls — no libc dependency.
//!
//! The syscall shims are inline-asm on `x86_64` and `aarch64` Linux; every
//! other target (macOS, other architectures) gets no-op stubs that
//! *report* being no-ops, so callers can degrade gracefully instead of
//! silently believing a pin happened. Nothing here runs unless a caller
//! asks for a pin (`ShardPlacement::NumaRoundRobin` in `dart-serve`).

/// Whether this build can actually change affinity (see
/// [`crate::affinity_supported`]).
pub(crate) const SUPPORTED: bool = sys::SUPPORTED;

/// Maximum CPUs representable in a [`CpuSet`] (matches the kernel's
/// default `CONFIG_NR_CPUS` ceiling on common distro kernels).
const MAX_CPUS: usize = 1024;
const WORDS: usize = MAX_CPUS / 64;

/// A fixed-size CPU mask in the kernel's `cpu_set_t` layout: bit `i` of
/// word `i / 64` is CPU `i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuSet {
    words: [u64; WORDS],
}

impl Default for CpuSet {
    fn default() -> Self {
        CpuSet::new()
    }
}

impl CpuSet {
    /// Maximum CPU id + 1 this set can hold.
    pub const MAX_CPUS: usize = MAX_CPUS;

    /// The empty set.
    pub fn new() -> CpuSet {
        CpuSet { words: [0; WORDS] }
    }

    /// Add `cpu`; errors past [`Self::MAX_CPUS`].
    pub fn set(&mut self, cpu: usize) -> Result<(), AffinityError> {
        if cpu >= MAX_CPUS {
            return Err(AffinityError::CpuOutOfRange(cpu));
        }
        self.words[cpu / 64] |= 1u64 << (cpu % 64);
        Ok(())
    }

    /// True when `cpu` is in the set.
    pub fn is_set(&self, cpu: usize) -> bool {
        cpu < MAX_CPUS && self.words[cpu / 64] & (1u64 << (cpu % 64)) != 0
    }

    /// Number of CPUs in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set as sorted CPU ids.
    pub fn to_vec(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count());
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(w * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// Mask size in bytes, as passed to the syscalls.
const MASK_BYTES: usize = WORDS * 8;
const _: () = assert!(MASK_BYTES * 8 == MAX_CPUS, "mask must cover exactly MAX_CPUS bits");

/// Why pinning failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AffinityError {
    /// The CPU list was empty — the kernel would reject an empty mask with
    /// `EINVAL`, so catch it with a better message.
    EmptySet,
    /// A CPU id past [`CpuSet::MAX_CPUS`].
    CpuOutOfRange(usize),
    /// The syscall itself failed; payload is the positive errno.
    Syscall(i32),
}

impl std::fmt::Display for AffinityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AffinityError::EmptySet => write!(f, "cannot pin to an empty CPU set"),
            AffinityError::CpuOutOfRange(c) => {
                write!(f, "cpu {c} exceeds the {MAX_CPUS}-cpu mask")
            }
            AffinityError::Syscall(errno) => {
                write!(f, "sched_setaffinity failed with errno {errno}")
            }
        }
    }
}

impl std::error::Error for AffinityError {}

/// Pin the **calling thread** to `cpus`.
///
/// * `Ok(true)` — the kernel accepted the mask; the thread now runs only
///   on those CPUs (and first-touch allocations land on their node).
/// * `Ok(false)` — this build cannot pin (unsupported OS/arch); nothing
///   happened. Callers treat this as "placement is a
///   hint" and proceed unpinned.
/// * `Err(_)` — a real failure (empty set, CPU out of range, or the
///   syscall was rejected, e.g. a cgroup cpuset excludes every requested
///   CPU).
pub fn pin_current_thread_to(cpus: &[usize]) -> Result<bool, AffinityError> {
    if cpus.is_empty() {
        return Err(AffinityError::EmptySet);
    }
    let mut set = CpuSet::new();
    for &cpu in cpus {
        set.set(cpu)?;
    }
    sys::set_affinity(&set)
}

/// The calling thread's current affinity mask as sorted CPU ids, or
/// `None` when this build cannot query it (unsupported OS/arch) or the
/// syscall failed.
pub fn current_affinity() -> Option<Vec<usize>> {
    sys::get_affinity().map(|set| set.to_vec())
}

/// Pin the calling thread to the **intersection** of `cpus` with its
/// current affinity mask — the placement-safe variant.
///
/// [`pin_current_thread_to`] applies the mask verbatim, which can
/// silently *widen* an operator-imposed restriction (`taskset`, a cgroup
/// cpuset) onto CPUs the operator excluded, or fail with `EINVAL` when
/// the target set and the allowed set don't overlap at all (e.g. a
/// fallback topology's synthesized `0..N` ids inside a container whose
/// cpuset starts at CPU 8). This variant never does either:
///
/// * `Ok(true)` — pinned to the non-empty intersection.
/// * `Ok(false)` — no pin happened: the build cannot pin, the current
///   mask could not be read, or the intersection is empty (none of the
///   requested CPUs is allowed for this thread). The thread keeps its
///   current mask.
/// * `Err(_)` — empty/out-of-range input, or the kernel rejected the
///   intersected mask.
pub fn pin_current_thread_within(cpus: &[usize]) -> Result<bool, AffinityError> {
    if cpus.is_empty() {
        return Err(AffinityError::EmptySet);
    }
    for &cpu in cpus {
        if cpu >= MAX_CPUS {
            return Err(AffinityError::CpuOutOfRange(cpu));
        }
    }
    let Some(allowed) = current_affinity() else {
        return Ok(false);
    };
    // `allowed` is sorted (bitmask order).
    let target: Vec<usize> =
        cpus.iter().copied().filter(|c| allowed.binary_search(c).is_ok()).collect();
    if target.is_empty() {
        return Ok(false);
    }
    pin_current_thread_to(&target)
}

/// Real syscall shims: Linux x86_64/aarch64.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys {
    use super::{AffinityError, CpuSet};

    pub(super) const SUPPORTED: bool = true;

    #[cfg(target_arch = "x86_64")]
    const NR_SCHED_SETAFFINITY: usize = 203;
    #[cfg(target_arch = "x86_64")]
    const NR_SCHED_GETAFFINITY: usize = 204;
    #[cfg(target_arch = "aarch64")]
    const NR_SCHED_SETAFFINITY: usize = 122;
    #[cfg(target_arch = "aarch64")]
    const NR_SCHED_GETAFFINITY: usize = 123;

    /// Three-argument Linux syscall, x86_64 convention: number in `rax`,
    /// args in `rdi`/`rsi`/`rdx`; `syscall` clobbers `rcx`/`r11`; the
    /// (possibly `-errno`) result lands back in `rax`.
    ///
    /// # Safety
    /// Caller must uphold the specific syscall's contract (valid pointers
    /// with correct lengths for the kernel to read/write).
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall3(nr: usize, a1: usize, a2: usize, a3: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// Three-argument Linux syscall, aarch64 convention: number in `x8`,
    /// args in `x0`..`x2`, result in `x0`.
    ///
    /// # Safety
    /// Same contract as the x86_64 shim.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall3(nr: usize, a1: usize, a2: usize, a3: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a1 as isize => ret,
            in("x1") a2,
            in("x2") a3,
            options(nostack),
        );
        ret
    }

    pub(super) fn set_affinity(set: &CpuSet) -> Result<bool, AffinityError> {
        // pid 0 = the calling thread. SAFETY: the mask pointer is valid
        // for MASK_BYTES bytes and the kernel only reads it.
        let rc = unsafe {
            syscall3(NR_SCHED_SETAFFINITY, 0, super::MASK_BYTES, set.words.as_ptr() as usize)
        };
        if rc < 0 {
            Err(AffinityError::Syscall(-rc as i32))
        } else {
            Ok(true)
        }
    }

    pub(super) fn get_affinity() -> Option<CpuSet> {
        let mut set = CpuSet::new();
        // SAFETY: the mask pointer is valid for MASK_BYTES bytes and
        // exclusively borrowed; the kernel writes at most that many.
        let rc = unsafe {
            syscall3(NR_SCHED_GETAFFINITY, 0, super::MASK_BYTES, set.words.as_mut_ptr() as usize)
        };
        // On success the syscall returns the number of bytes it wrote.
        (rc > 0).then_some(set)
    }
}

/// No-op stubs: an OS/arch without the raw shims. Pinning reports
/// `Ok(false)` so callers know nothing happened.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod sys {
    use super::{AffinityError, CpuSet};

    pub(super) const SUPPORTED: bool = false;

    pub(super) fn set_affinity(_set: &CpuSet) -> Result<bool, AffinityError> {
        Ok(false)
    }

    pub(super) fn get_affinity() -> Option<CpuSet> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpuset_set_query_and_roundtrip() {
        let mut set = CpuSet::new();
        assert_eq!(set.count(), 0);
        for cpu in [0usize, 1, 63, 64, 100, 1023] {
            set.set(cpu).unwrap();
        }
        assert_eq!(set.count(), 6);
        assert!(set.is_set(63) && set.is_set(64) && !set.is_set(65));
        assert_eq!(set.to_vec(), vec![0, 1, 63, 64, 100, 1023]);
        assert_eq!(set.set(1024), Err(AffinityError::CpuOutOfRange(1024)));
        assert!(!set.is_set(usize::MAX));
    }

    #[test]
    fn empty_pin_is_rejected_everywhere() {
        // Both the real and stub backends reject an empty set up front.
        assert_eq!(pin_current_thread_to(&[]), Err(AffinityError::EmptySet));
        assert_eq!(pin_current_thread_within(&[]), Err(AffinityError::EmptySet));
        assert_eq!(
            pin_current_thread_within(&[usize::MAX]),
            Err(AffinityError::CpuOutOfRange(usize::MAX))
        );
    }

    #[test]
    fn out_of_range_cpu_is_rejected_everywhere() {
        assert_eq!(
            pin_current_thread_to(&[usize::MAX]),
            Err(AffinityError::CpuOutOfRange(usize::MAX))
        );
    }

    /// Unsupported target: pinning must be a *reported* no-op, never a
    /// silent pretend-success.
    #[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
    #[test]
    fn unsupported_build_reports_noop() {
        assert!(!crate::affinity_supported());
        assert_eq!(pin_current_thread_to(&[0]), Ok(false));
        assert_eq!(pin_current_thread_within(&[0]), Ok(false));
        assert_eq!(current_affinity(), None);
    }

    /// Real syscalls: pin this thread to one CPU of its current mask,
    /// verify via `sched_getaffinity`, then restore the original mask so
    /// the test harness thread is left untouched.
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    #[test]
    fn pin_narrows_and_restores_real_affinity() {
        assert!(crate::affinity_supported());
        let original = current_affinity().expect("getaffinity must work on linux");
        assert!(!original.is_empty());

        let target = original[0];
        assert_eq!(pin_current_thread_to(&[target]), Ok(true));
        assert_eq!(current_affinity().unwrap(), vec![target]);

        // Restore (other tests share this thread).
        assert_eq!(pin_current_thread_to(&original), Ok(true));
        assert_eq!(current_affinity().unwrap(), original);
    }

    /// The intersection-aware pin never widens the current mask: CPUs
    /// outside it are filtered out, a fully-disjoint request is a
    /// reported no-pin (not an EINVAL), and allowed CPUs still pin.
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    #[test]
    fn pin_within_never_escapes_the_current_mask() {
        let original = current_affinity().expect("getaffinity must work on linux");
        let top = *original.last().unwrap();

        // A request mixing one allowed CPU with (possibly nonexistent,
        // certainly not-in-mask) higher ids pins to the allowed subset
        // only.
        if top + 1 < CpuSet::MAX_CPUS {
            let mixed = vec![original[0], top + 1];
            assert_eq!(pin_current_thread_within(&mixed), Ok(true));
            assert_eq!(current_affinity().unwrap(), vec![original[0]]);
            assert_eq!(pin_current_thread_to(&original), Ok(true), "restore");

            // Fully disjoint from the mask: no pin, mask untouched —
            // exactly the masked-sysfs-in-a-cpuset-container shape.
            assert_eq!(pin_current_thread_within(&[top + 1]), Ok(false));
            assert_eq!(current_affinity().unwrap(), original);
        }

        // The full allowed set round-trips.
        assert_eq!(pin_current_thread_within(&original), Ok(true));
        assert_eq!(current_affinity().unwrap(), original);
    }
}
