//! Socket readiness without libc: raw `epoll` syscalls on Linux
//! x86_64/aarch64 (inline-asm shims), and a portable sleep-then-probe
//! fallback everywhere else.
//!
//! The fallback is a **portability / sanitizer shim, not a production
//! backend**: it has no kernel readiness source, so it sleeps at most
//! [`FALLBACK_PROBE_MS`] and then reports **every** registered token as
//! readable — spurious readiness, not missed readiness — which is
//! correct (if lazy) against non-blocking sockets: a spurious wakeup
//! costs one `WouldBlock` read. It exists so the crate builds and its
//! suite runs where the epoll shims do not (non-Linux hosts; under TSan,
//! which cannot see through raw syscalls). `DART_NET_POLLER=fallback`
//! forces it on Linux for exactly those runs; it is not benchmarked.
//!
//! Both backends carry a [`Waker`]: any thread can cut a
//! [`Poller::wait`] short. The wake is consumed inside `wait` and never
//! surfaces as an [`Event`], so callers need no reserved token.

use std::io;
use std::sync::Arc;

/// Longest the fallback backend sleeps between probes, milliseconds:
/// the bound on how stale its readiness view can get.
const FALLBACK_PROBE_MS: u64 = 5;

/// One readiness report.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// Readable (or spuriously assumed so by the fallback backend).
    pub readable: bool,
    /// Writable. Only ever reported for tokens with writable interest
    /// ([`Poller::set_writable`]); the fallback backend reports it
    /// spuriously for those, like it does readability.
    pub writable: bool,
    /// Peer hung up or the socket errored; the owner should read to EOF
    /// and tear the connection down.
    pub hangup: bool,
}

/// A level-triggered readiness poller over raw file descriptors.
pub struct Poller {
    backend: Backend,
    /// Tokens with writable interest, mirrored across backends. This is
    /// the introspection surface tests pin the EPOLLOUT discipline with
    /// (interest registered **only** while an outbox has pending bytes),
    /// and it keeps `set_writable` idempotent without a syscall.
    writable: std::collections::HashSet<u64>,
}

enum Backend {
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    Epoll(epoll::Epoll),
    Fallback(fallback::Probe),
}

impl Poller {
    /// Build the best backend for this platform (see module docs).
    pub fn new() -> io::Result<Poller> {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            let forced = std::env::var("DART_NET_POLLER").is_ok_and(|v| v == "fallback");
            if !forced {
                return Ok(Poller {
                    backend: Backend::Epoll(epoll::Epoll::new()?),
                    writable: std::collections::HashSet::new(),
                });
            }
        }
        Ok(Poller {
            backend: Backend::Fallback(fallback::Probe::default()),
            writable: std::collections::HashSet::new(),
        })
    }

    /// A handle any thread can use to cut this poller's [`Self::wait`]
    /// short. It keeps working — harmlessly — after the poller is gone.
    pub fn waker(&self) -> Waker {
        match &self.backend {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Backend::Epoll(e) => Waker(WakerKind::Epoll(e.wake_fd())),
            Backend::Fallback(p) => Waker(WakerKind::Fallback(p.signal())),
        }
    }

    /// Which backend is live (`"epoll"` or `"fallback"`).
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Backend::Epoll(_) => "epoll",
            Backend::Fallback(_) => "fallback",
        }
    }

    /// Watch `fd` for readability under `token`. Level-triggered: the fd
    /// keeps reporting until drained to `WouldBlock`.
    pub fn register(&mut self, fd: i32, token: u64) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Backend::Epoll(e) => e.register(fd, token),
            Backend::Fallback(p) => p.register(token),
        }
    }

    /// Stop watching `fd` / `token`.
    pub fn deregister(&mut self, fd: i32, token: u64) -> io::Result<()> {
        self.writable.remove(&token);
        match &mut self.backend {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Backend::Epoll(e) => e.deregister(fd, token),
            Backend::Fallback(p) => p.deregister(token),
        }
    }

    /// Add or drop **writable** interest for an already-registered
    /// `fd`/`token` (readable interest is unaffected). Level-triggered:
    /// while interest is set, a socket with send-buffer space reports
    /// writable on every wait — so callers must register only while they
    /// actually have pending bytes and drop interest once drained, or the
    /// loop busy-spins. Idempotent; no syscall when the interest already
    /// matches.
    pub fn set_writable(&mut self, fd: i32, token: u64, on: bool) -> io::Result<()> {
        if on == self.writable.contains(&token) {
            return Ok(());
        }
        match &mut self.backend {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Backend::Epoll(e) => e.set_writable(fd, token, on)?,
            Backend::Fallback(p) => p.set_writable(token, on)?,
        }
        if on {
            self.writable.insert(token);
        } else {
            self.writable.remove(&token);
        }
        Ok(())
    }

    /// Whether `token` currently has writable interest (introspection for
    /// the only-while-pending tests; both backends).
    pub fn writable_interest(&self, token: u64) -> bool {
        self.writable.contains(&token)
    }

    /// How many tokens currently have writable interest.
    pub fn writable_count(&self) -> usize {
        self.writable.len()
    }

    /// Wait up to `timeout_ms` for readiness or a [`Waker::wake`];
    /// clears and refills `out` (a wake alone leaves it empty).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: u64) -> io::Result<()> {
        out.clear();
        match &mut self.backend {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Backend::Epoll(e) => e.wait(out, timeout_ms),
            Backend::Fallback(p) => p.wait(out, timeout_ms),
        }
    }
}

/// Interrupts one [`Poller`]'s `wait` from any thread ([`Poller::waker`]).
///
/// Wakes are level-style, not edge-style: one issued while the poller
/// is not waiting is remembered until its next `wait`, which then
/// returns at once, and any number issued before that collapse into
/// one. The primitive itself holds the pending state (an `eventfd`
/// counter under epoll, a flag under a mutex on the fallback), so there
/// is no separate "already woken" latch that could fall out of step
/// with it.
#[derive(Clone)]
pub struct Waker(WakerKind);

#[derive(Clone)]
enum WakerKind {
    /// The handle co-owns the eventfd, so the descriptor stays open (and
    /// its number un-recycled) for as long as any waker can write to it.
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    Epoll(Arc<std::fs::File>),
    Fallback(Arc<fallback::Signal>),
}

impl Waker {
    /// Make the poller's current (or next) `wait` return promptly.
    pub fn wake(&self) {
        match &self.0 {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            WakerKind::Epoll(fd) => {
                use std::io::Write;
                // Adds 1 to the eventfd counter. The only failure is
                // `WouldBlock` at counter saturation, i.e. with a wake
                // already pending — nothing to report either way.
                let _ = (&**fd).write(&1u64.to_ne_bytes());
            }
            WakerKind::Fallback(signal) => signal.raise(),
        }
    }
}

/// Real epoll via raw syscalls (no libc).
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod epoll {
    use super::Event;
    use std::io::{self, Read};
    use std::sync::Arc;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EVENTFD2: usize = 290;
        pub const EPOLL_CREATE1: usize = 291;
        pub const EPOLL_CTL: usize = 233;
        /// Plain `epoll_wait` exists on x86_64; aarch64 only has the
        /// `_pwait` form, so both arches go through `epoll_pwait` with a
        /// null sigmask for one shared call site.
        pub const EPOLL_PWAIT: usize = 281;
        pub const CLOSE: usize = 3;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EVENTFD2: usize = 19;
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const CLOSE: usize = 57;
    }

    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;
    const EPOLL_CLOEXEC: usize = 0x80000;
    const EFD_CLOEXEC: usize = 0x80000;
    const EFD_NONBLOCK: usize = 0x800;
    const MAX_EVENTS: usize = 256;
    /// Registration token of the wake eventfd; consumed inside
    /// [`Epoll::wait`], never reported. Callers' tokens are connection
    /// ids (`u32`) and small constants, so `u64::MAX` cannot collide.
    const WAKE_DATA: u64 = u64::MAX;

    /// The kernel's `struct epoll_event`: packed on x86_64 (a 32-bit ABI
    /// fossil), naturally aligned everywhere else.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// Six-argument Linux syscall, x86_64 convention: number in `rax`,
    /// args in `rdi`/`rsi`/`rdx`/`r10`/`r8`/`r9`; `syscall` clobbers
    /// `rcx`/`r11`; the (possibly `-errno`) result lands back in `rax`.
    ///
    /// # Safety
    /// Caller must uphold the specific syscall's contract (valid pointers
    /// with correct lengths for the kernel to read/write).
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(nr: usize, a: [usize; 6]) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a[0],
            in("rsi") a[1],
            in("rdx") a[2],
            in("r10") a[3],
            in("r8") a[4],
            in("r9") a[5],
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// Six-argument Linux syscall, aarch64 convention: number in `x8`,
    /// args in `x0`..`x5`, result in `x0`.
    ///
    /// # Safety
    /// Same contract as the x86_64 shim.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(nr: usize, a: [usize; 6]) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a[0] as isize => ret,
            in("x1") a[1],
            in("x2") a[2],
            in("x3") a[3],
            in("x4") a[4],
            in("x5") a[5],
            options(nostack),
        );
        ret
    }

    fn check(rc: isize) -> io::Result<usize> {
        if rc < 0 {
            Err(io::Error::from_raw_os_error(-rc as i32))
        } else {
            Ok(rc as usize)
        }
    }

    pub(super) struct Epoll {
        epfd: i32,
        events: Vec<EpollEvent>,
        /// The wake eventfd, registered under [`WAKE_DATA`]. Shared with
        /// every [`super::Waker`]; closed when the last owner drops.
        wake: Arc<std::fs::File>,
    }

    impl Epoll {
        pub(super) fn new() -> io::Result<Epoll> {
            use std::os::fd::{AsRawFd, FromRawFd};
            // SAFETY: eventfd2 takes a counter value and a flags word, no
            // pointers.
            let rc = unsafe { syscall6(nr::EVENTFD2, [0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0]) };
            let fd = check(rc)? as i32;
            // SAFETY: `fd` is a descriptor the kernel just returned to us
            // and nothing else knows, so the `File` is its sole owner.
            let wake = Arc::new(unsafe { std::fs::File::from_raw_fd(fd) });
            // SAFETY: epoll_create1 takes a flags word, no pointers.
            let rc = unsafe { syscall6(nr::EPOLL_CREATE1, [EPOLL_CLOEXEC, 0, 0, 0, 0, 0]) };
            let epfd = check(rc)? as i32;
            let mut epoll =
                Epoll { epfd, events: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS], wake };
            epoll.register(epoll.wake.as_raw_fd(), WAKE_DATA)?;
            Ok(epoll)
        }

        pub(super) fn wake_fd(&self) -> Arc<std::fs::File> {
            Arc::clone(&self.wake)
        }

        pub(super) fn register(&mut self, fd: i32, token: u64) -> io::Result<()> {
            let ev = EpollEvent { events: EPOLLIN | EPOLLRDHUP, data: token };
            // SAFETY: the event pointer is valid for one struct and the
            // kernel only reads it during the call.
            let rc = unsafe {
                syscall6(
                    nr::EPOLL_CTL,
                    [
                        self.epfd as usize,
                        EPOLL_CTL_ADD,
                        fd as usize,
                        &ev as *const EpollEvent as usize,
                        0,
                        0,
                    ],
                )
            };
            check(rc).map(|_| ())
        }

        pub(super) fn set_writable(&mut self, fd: i32, token: u64, on: bool) -> io::Result<()> {
            let events = if on { EPOLLIN | EPOLLRDHUP | EPOLLOUT } else { EPOLLIN | EPOLLRDHUP };
            let ev = EpollEvent { events, data: token };
            // SAFETY: as in `register` — one struct, read-only to the
            // kernel for the duration of the call.
            let rc = unsafe {
                syscall6(
                    nr::EPOLL_CTL,
                    [
                        self.epfd as usize,
                        EPOLL_CTL_MOD,
                        fd as usize,
                        &ev as *const EpollEvent as usize,
                        0,
                        0,
                    ],
                )
            };
            check(rc).map(|_| ())
        }

        pub(super) fn deregister(&mut self, fd: i32, _token: u64) -> io::Result<()> {
            // A non-null event pointer keeps pre-2.6.9-kernel semantics
            // happy; the kernel ignores its contents for DEL.
            let ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `register`.
            let rc = unsafe {
                syscall6(
                    nr::EPOLL_CTL,
                    [
                        self.epfd as usize,
                        EPOLL_CTL_DEL,
                        fd as usize,
                        &ev as *const EpollEvent as usize,
                        0,
                        0,
                    ],
                )
            };
            check(rc).map(|_| ())
        }

        pub(super) fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: u64) -> io::Result<()> {
            let timeout = timeout_ms.min(i32::MAX as u64) as usize;
            // SAFETY: the events pointer is valid for MAX_EVENTS structs,
            // exclusively borrowed; the kernel writes at most that many.
            // Null sigmask (arg 5) means "don't touch the signal mask",
            // in which case the sigsetsize (arg 6) is ignored.
            let rc = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    [
                        self.epfd as usize,
                        self.events.as_mut_ptr() as usize,
                        MAX_EVENTS,
                        timeout,
                        0,
                        0,
                    ],
                )
            };
            let n = match check(rc) {
                Ok(n) => n,
                // A stray signal is a spurious wakeup, not a failure.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in &self.events[..n] {
                // Copy out of the (possibly packed) struct before use.
                let (bits, token) = (ev.events, ev.data);
                if token == WAKE_DATA {
                    // Reading an eventfd returns its counter and zeroes
                    // it: every wake so far is consumed, and one landing
                    // after this read makes the fd readable again.
                    let _ = (&*self.wake).read(&mut [0u8; 8]);
                    continue;
                }
                out.push(Event {
                    token,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: closing the fd we own; no pointers involved.
            unsafe { syscall6(nr::CLOSE, [self.epfd as usize, 0, 0, 0, 0, 0]) };
        }
    }
}

/// Portable fallback: sleep out the timeout (or until woken), then
/// report every registered token as (possibly spuriously) readable.
mod fallback {
    use super::Event;
    use std::io;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::Duration;

    /// The fallback's wake state: a flag the sleeper waits on.
    #[derive(Default)]
    pub(super) struct Signal {
        raised: Mutex<bool>,
        cv: Condvar,
    }

    impl Signal {
        pub(super) fn raise(&self) {
            *self.raised.lock().unwrap_or_else(PoisonError::into_inner) = true;
            self.cv.notify_one();
        }

        /// Sleep until raised or `timeout`, then lower the flag.
        fn sleep(&self, timeout: Duration) {
            let raised = self.raised.lock().unwrap_or_else(PoisonError::into_inner);
            let (mut raised, _timed_out) = self
                .cv
                .wait_timeout_while(raised, timeout, |raised| !*raised)
                .unwrap_or_else(PoisonError::into_inner);
            *raised = false;
        }
    }

    /// Registered tokens, each with whether it has writable interest.
    #[derive(Default)]
    pub(super) struct Probe {
        tokens: Vec<(u64, bool)>,
        signal: Arc<Signal>,
    }

    impl Probe {
        pub(super) fn signal(&self) -> Arc<Signal> {
            Arc::clone(&self.signal)
        }

        pub(super) fn register(&mut self, token: u64) -> io::Result<()> {
            if self.tokens.iter().any(|&(t, _)| t == token) {
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, "token registered"));
            }
            self.tokens.push((token, false));
            Ok(())
        }

        pub(super) fn deregister(&mut self, token: u64) -> io::Result<()> {
            match self.tokens.iter().position(|&(t, _)| t == token) {
                Some(i) => {
                    self.tokens.swap_remove(i);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "token not registered")),
            }
        }

        pub(super) fn set_writable(&mut self, token: u64, on: bool) -> io::Result<()> {
            match self.tokens.iter_mut().find(|(t, _)| *t == token) {
                Some((_, w)) => {
                    *w = on;
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "token not registered")),
            }
        }

        pub(super) fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: u64) -> io::Result<()> {
            // Cap the probe interval so a caller's long timeout does not
            // turn into long stretches of readiness blindness.
            self.signal.sleep(Duration::from_millis(timeout_ms.min(super::FALLBACK_PROBE_MS)));
            // Spurious readiness on both axes, but writability only for
            // tokens that asked (same only-while-pending discipline the
            // epoll backend enforces in the kernel).
            out.extend(self.tokens.iter().map(|&(token, writable)| Event {
                token,
                readable: true,
                writable,
                hangup: false,
            }));
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[cfg(unix)]
    fn raw_fd(s: &impl std::os::unix::io::AsRawFd) -> i32 {
        s.as_raw_fd()
    }

    /// Both backends must drive a real socket: register a connected pair,
    /// observe readability only the native backend can claim truthfully,
    /// and spurious readiness from the fallback must still let a
    /// non-blocking read find the bytes.
    #[cfg(unix)]
    fn exercise(mut poller: Poller) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();

        poller.register(raw_fd(&served), 7).unwrap();
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();

        let mut events = Vec::new();
        let mut buf = [0u8; 16];
        let mut got = Vec::new();
        for _ in 0..400 {
            poller.wait(&mut events, 5).unwrap();
            for ev in &events {
                assert_eq!(ev.token, 7);
                if ev.readable {
                    match served.read(&mut buf) {
                        Ok(n) => got.extend_from_slice(&buf[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(e) => panic!("read failed: {e}"),
                    }
                }
            }
            if got == b"ping" {
                poller.deregister(raw_fd(&served), 7).unwrap();
                return;
            }
        }
        panic!("poller never surfaced the bytes (backend {})", poller.backend_name());
    }

    /// Writability discipline on a live socket: never reported without
    /// interest, reported while interest is set (an idle socket's send
    /// buffer has space, so epoll must claim it and the fallback may),
    /// and gone again once interest is dropped.
    #[cfg(unix)]
    fn exercise_writable(mut poller: Poller) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();

        poller.register(raw_fd(&served), 7).unwrap();
        assert!(!poller.writable_interest(7));
        assert_eq!(poller.writable_count(), 0);

        let mut events = Vec::new();
        for _ in 0..3 {
            poller.wait(&mut events, 5).unwrap();
            assert!(
                events.iter().all(|ev| !ev.writable),
                "writable reported without interest (backend {})",
                poller.backend_name()
            );
        }

        poller.set_writable(raw_fd(&served), 7, true).unwrap();
        poller.set_writable(raw_fd(&served), 7, true).unwrap(); // idempotent
        assert!(poller.writable_interest(7));
        assert_eq!(poller.writable_count(), 1);
        let mut saw_writable = false;
        for _ in 0..400 {
            poller.wait(&mut events, 5).unwrap();
            if events.iter().any(|ev| ev.token == 7 && ev.writable) {
                saw_writable = true;
                break;
            }
        }
        assert!(
            saw_writable,
            "idle socket never reported writable under interest (backend {})",
            poller.backend_name()
        );

        poller.set_writable(raw_fd(&served), 7, false).unwrap();
        assert!(!poller.writable_interest(7));
        for _ in 0..3 {
            poller.wait(&mut events, 5).unwrap();
            assert!(
                events.iter().all(|ev| !ev.writable),
                "writable reported after interest dropped (backend {})",
                poller.backend_name()
            );
        }

        poller.deregister(raw_fd(&served), 7).unwrap();
        assert_eq!(poller.writable_count(), 0);
    }

    /// The wake contract, both backends: a wake issued while nobody waits
    /// is held for the next `wait` (however many were issued, it is one
    /// wake), surfaces no event, and is consumed by that `wait`; a wake
    /// from another thread ends a long wait; and a waker outliving its
    /// poller stays harmless.
    fn exercise_waker(mut poller: Poller) {
        use std::time::{Duration, Instant};
        let long = 20_000;
        let prompt = Duration::from_secs(10);
        let waker = poller.waker();
        let mut events = Vec::new();

        waker.wake();
        waker.wake();
        let t = Instant::now();
        poller.wait(&mut events, long).unwrap();
        assert!(events.is_empty(), "a wake is not an event: {events:?}");
        assert!(t.elapsed() < prompt, "a wake issued before the wait was lost");

        // Consumed: with nothing pending the next wait sleeps again
        // instead of spinning on a stuck-readable wake source.
        let t = Instant::now();
        poller.wait(&mut events, 3).unwrap();
        assert!(events.is_empty());
        assert!(t.elapsed() >= Duration::from_millis(2), "wake was not consumed");

        // Whether this lands before or during the wait, it must end it.
        let remote = waker.clone();
        let t = Instant::now();
        let thread = std::thread::spawn(move || remote.wake());
        poller.wait(&mut events, long).unwrap();
        assert!(t.elapsed() < prompt, "a cross-thread wake did not end the wait");
        thread.join().unwrap();

        drop(poller);
        waker.wake();
    }

    #[test]
    fn native_backend_waker_contract() {
        exercise_waker(Poller::new().unwrap());
    }

    #[test]
    fn fallback_backend_waker_contract() {
        exercise_waker(Poller {
            backend: Backend::Fallback(fallback::Probe::default()),
            writable: std::collections::HashSet::new(),
        });
    }

    #[cfg(unix)]
    #[test]
    fn native_backend_surfaces_readability() {
        exercise(Poller::new().unwrap());
    }

    #[cfg(unix)]
    #[test]
    fn native_backend_honors_writable_interest() {
        exercise_writable(Poller::new().unwrap());
    }

    #[cfg(unix)]
    #[test]
    fn fallback_backend_honors_writable_interest() {
        let poller = Poller {
            backend: Backend::Fallback(fallback::Probe::default()),
            writable: std::collections::HashSet::new(),
        };
        exercise_writable(poller);
    }

    #[test]
    fn fallback_rejects_writable_interest_on_unknown_token() {
        let mut p = fallback::Probe::default();
        assert!(p.set_writable(3, true).is_err());
        p.register(3).unwrap();
        p.set_writable(3, true).unwrap();
        p.deregister(3).unwrap();
        assert!(p.set_writable(3, false).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn fallback_backend_surfaces_readability() {
        let poller = Poller {
            backend: Backend::Fallback(fallback::Probe::default()),
            writable: std::collections::HashSet::new(),
        };
        assert_eq!(poller.backend_name(), "fallback");
        exercise(poller);
    }

    #[test]
    fn fallback_rejects_double_register_and_unknown_deregister() {
        let mut p = fallback::Probe::default();
        p.register(1).unwrap();
        assert!(p.register(1).is_err());
        assert!(p.deregister(2).is_err());
        p.deregister(1).unwrap();
        let mut out = Vec::new();
        p.wait(&mut out, 0).unwrap();
        assert!(out.is_empty());
    }

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    #[test]
    fn linux_default_backend_is_epoll() {
        // The suite does not set DART_NET_POLLER, so the default must be
        // the real epoll backend here.
        if std::env::var("DART_NET_POLLER").is_err() {
            assert_eq!(Poller::new().unwrap().backend_name(), "epoll");
        }
    }
}
