//! Keeps a run, and every thread it starts, on one CPU.
//!
//! The benchmark's client, the server's event loop and its dispatcher
//! worker hand each request from thread to thread.  On a virtual machine a
//! handoff to another CPU that has gone idle waits for the hypervisor to
//! run that CPU again, and that wait follows the load of the host's other
//! tenants, not the program.  Measured on a 2-vCPU host in a busy period,
//! with the threads left free to move, six 10 s runs spread
//! `serve_pipelined`'s p99 latencies 0.41 to 0.47 and `write_evict`'s
//! `query_p50_us` 0.39 (quartile distance over median); pinned to one CPU,
//! in runs interleaved with those, 0.12 to 0.17 and 0.14.  On one CPU
//! every handoff is local, and the CPU stays busy for as long as a request
//! is in flight.
//!
//! Threads inherit the affinity of the thread that spawns them, so pinning
//! the calling thread before any server starts pins the servers too.
//! [`unpinned`] runs a closure on the CPUs the process started with, for
//! the diagnostic that compares server sizings across the host's cores.

use std::sync::OnceLock;

/// A CPU mask as the kernel's `cpu_set_t`: 1024 bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(transparent)]
struct CpuSet([u64; 16]);

impl CpuSet {
    /// The CPUs in the set, in increasing order.
    fn cpus(&self) -> Vec<usize> {
        (0..self.0.len() * 64)
            .filter(|&c| self.0[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    fn only(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; 16]);
        set.0[cpu / 64] |= 1 << (cpu % 64);
        set
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread's CPU set.
fn current() -> Result<CpuSet, String> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc == 0 {
        Ok(set)
    } else {
        Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Restricts the calling thread (and threads it spawns later) to `set`.
fn apply(set: &CpuSet) -> Result<(), String> {
    // SAFETY: `set` is a live buffer of exactly the size passed, which the
    // kernel only reads, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// The CPU set the first call to [`pin`] found.
static HOST: OnceLock<CpuSet> = OnceLock::new();

/// Pins the calling thread to the last CPU it may run on and returns that
/// CPU and how many it could use before.
///
/// # Errors
/// The kernel refusing to read or set the mask.
pub fn pin() -> Result<(usize, usize), String> {
    let host = match HOST.get() {
        Some(set) => *set,
        None => {
            let set = current()?;
            *HOST.get_or_init(|| set)
        }
    };
    let cpus = host.cpus();
    let cpu = *cpus.last().ok_or("no CPU in the affinity mask")?;
    apply(&CpuSet::only(cpu))?;
    Ok((cpu, cpus.len()))
}

/// Runs `f` with the calling thread on every CPU the process started with,
/// then pins it again to the CPU it was on.
///
/// # Errors
/// The kernel refusing to set the mask.
pub fn unpinned<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let pinned = current()?;
    if let Some(host) = HOST.get() {
        apply(host)?;
    }
    let out = f();
    apply(&pinned)?;
    Ok(out)
}
