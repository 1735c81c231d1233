//! Stackful run-to-completion coroutines for rank execution.
//!
//! Each simulated rank runs as a *fiber*: an ordinary imperative closure on
//! its own call stack, suspended and resumed by swapping stack pointers. A
//! park/wake handoff is therefore two userspace register swaps (~tens of
//! nanoseconds) instead of the futex round-trip and kernel context switch a
//! thread-per-rank design pays. The engine drives every fiber from its own
//! run-loop thread, so the simulation stays literally single-threaded: no
//! locks, no channels, no cross-core cache traffic on the yield path.
//!
//! # Mechanics
//!
//! * Stacks are `mmap`ed with a `PROT_NONE` guard page at the low end, so a
//!   rank body that overruns its stack faults loudly instead of silently
//!   corrupting the heap. Up to `POOL_CAP` released stacks park in a
//!   process-global pool and are reused by later simulations, so a run of
//!   at most that many ranks maps no stack after the first; a larger fleet
//!   (`halo-4k` spawns 4096) maps and unmaps the excess on every run.
//! * The context switch saves the sysv64 callee-saved registers plus the
//!   stack pointer and restores the peer's; everything else is handled by
//!   the compiler around the `extern` call boundary.
//! * A fiber's entry point wraps the rank body in [`catch_unwind`], so an
//!   unwind (a panic, or the hook-free teardown unwind a [`Resume::Abort`]
//!   starts) never crosses the switch boundary: it is converted into a
//!   [`YieldMsg::Panicked`] handoff and the fiber parks itself as finished.
//! * Communication with the engine goes through the fiber's [`FiberData`]
//!   cell: the fiber writes a [`YieldMsg`] and switches out, the engine
//!   reads it after the switch returns; the engine writes a [`Resume`]
//!   reason before switching in, the fiber reads it after its yield
//!   returns. Exactly one side runs at a time, so the cell needs no
//!   synchronization.
//!
//! This module is x86_64-Linux-only (see the `cfg` in `lib.rs`); on other
//! targets the engine falls back to the OS-thread driver, which is also kept
//! as the reference model for the runtime-equivalence property tests.

use std::panic::{catch_unwind, AssertUnwindSafe};

use parking_lot::Mutex;

use crate::engine::{Resume, YieldMsg};

/// Fiber stack size (including the one-page guard). Virtual memory only —
/// pages are committed on first touch, so a 4k-rank fleet does not pay
/// 4k × stack in RSS.
const STACK_BYTES: usize = 2 * 1024 * 1024;

const PAGE: usize = 4096;

mod sys {
    use std::ffi::{c_int, c_void};

    pub(crate) const PROT_NONE: c_int = 0;
    pub(crate) const PROT_READ: c_int = 1;
    pub(crate) const PROT_WRITE: c_int = 2;
    pub(crate) const MAP_PRIVATE: c_int = 0x2;
    pub(crate) const MAP_ANONYMOUS: c_int = 0x20;
    pub(crate) const MAP_STACK: c_int = 0x20000;

    extern "C" {
        pub(super) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub(super) fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub(super) fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    }
}

/// An owned `mmap`ed stack with a guard page at its low end.
struct RawStack {
    base: *mut u8,
    len: usize,
}

// SAFETY: a `RawStack` is just an owned memory range; the pool moves it
// between threads while no fiber is running on it. (`STACK_POOL` is the only
// reason this impl exists: a `static` must be `Sync`.)
unsafe impl Send for RawStack {}

impl RawStack {
    fn alloc(len: usize) -> std::io::Result<RawStack> {
        // SAFETY: plain anonymous mapping; error-checked below.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_STACK,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `base..base+PAGE` is inside the fresh mapping.
        if unsafe { sys::mprotect(base, PAGE, sys::PROT_NONE) } != 0 {
            let err = std::io::Error::last_os_error();
            unsafe { sys::munmap(base, len) };
            return Err(err);
        }
        Ok(RawStack {
            base: base as *mut u8,
            len,
        })
    }

    fn top(&self) -> *mut u8 {
        // SAFETY: one-past-the-end pointer of the mapping.
        unsafe { self.base.add(self.len) }
    }
}

impl Drop for RawStack {
    fn drop(&mut self) {
        // SAFETY: `base/len` came from a successful mmap we own.
        unsafe { sys::munmap(self.base as *mut _, self.len) };
    }
}

/// Process-global pool of released stacks ("the fiber arena"): bounded so a
/// one-off huge fleet cannot pin memory forever.
///
/// Kept on measurement, not on faith (PR 23: `benchmark/`, ten-second runs,
/// alternating, with the pool → without): `serve-bulk` `peak_rss_mb`
/// 77.9–82.9 → 87.3–93.7, worse in five of five pairs;
/// `simcore.fiber.spawn_us` median 9.9 → 11.3 over three runs each, ranges
/// overlapping; `suite` and `halo4k` `wall_s` unresolved.
static STACK_POOL: Mutex<Vec<RawStack>> = Mutex::new(Vec::new());
const POOL_CAP: usize = 1024;

fn acquire_stack() -> std::io::Result<RawStack> {
    if let Some(s) = STACK_POOL.lock().pop() {
        return Ok(s);
    }
    RawStack::alloc(STACK_BYTES)
}

fn release_stack(s: RawStack) {
    let mut pool = STACK_POOL.lock();
    if pool.len() < POOL_CAP {
        pool.push(s);
    }
}

/// Shared cell between a fiber and the engine. Exactly one of the two sides
/// executes at any instant (strict handoff via [`raw_switch`]), so plain
/// fields suffice. Heap-allocated so its address is stable: the fiber's
/// `RankCtx` holds a raw pointer to it.
pub(crate) struct FiberData {
    /// Engine-side saved stack pointer (valid while the fiber runs).
    engine_sp: usize,
    /// Fiber-side saved stack pointer (valid while the fiber is suspended).
    fiber_sp: usize,
    /// Handoff slot: written by the fiber before switching to the engine.
    pub(crate) msg: Option<YieldMsg>,
    /// Why the engine resumed the fiber: written by the engine before each
    /// switch in, read by the fiber when its yield returns.
    pub(crate) resume: Resume,
    /// The rank body, consumed on first entry.
    entry: Option<Box<dyn FnOnce(*mut FiberData)>>,
    started: bool,
    finished: bool,
}

/// One rank coroutine: data cell plus its stack.
pub(crate) struct Fiber {
    data: *mut FiberData,
    stack: RawStack,
}

impl Fiber {
    /// Create a suspended fiber that will run `entry` (with a pointer to its
    /// own data cell) on first [`Fiber::resume`]. Fails only if no stack can
    /// be mapped.
    pub(crate) fn new(entry: Box<dyn FnOnce(*mut FiberData)>) -> std::io::Result<Fiber> {
        let stack = acquire_stack()?;
        let data = Box::into_raw(Box::new(FiberData {
            engine_sp: 0,
            fiber_sp: 0,
            msg: None,
            resume: Resume::Run,
            entry: Some(entry),
            started: false,
            finished: false,
        }));
        // Seed the stack so the first switch "returns" into the trampoline:
        // [a] = trampoline address (consumed by `ret`), below it the six
        // callee-saved register slots popped by `raw_switch`, with the data
        // pointer parked in the r12 slot. `a` is chosen 8 below a 16-byte
        // boundary so the trampoline entered via `ret` sees a 16-aligned
        // rsp, and its `call` then establishes the sysv64 entry alignment.
        unsafe {
            let top = stack.top() as usize;
            let a = ((top & !15) - 8) as *mut u64;
            a.write(fiber_trampoline as *const () as usize as u64);
            // Slots (descending): rbp, rbx, r12, r13, r14, r15.
            a.sub(1).write(0); // rbp
            a.sub(2).write(0); // rbx
            a.sub(3).write(data as u64); // r12 -> trampoline arg
            a.sub(4).write(0); // r13
            a.sub(5).write(0); // r14
            a.sub(6).write(0); // r15
            (*data).fiber_sp = a.sub(6) as usize;
        }
        Ok(Fiber { data, stack })
    }

    /// True once the rank body has returned or panicked.
    #[cfg(test)]
    fn is_finished(&self) -> bool {
        // SAFETY: the fiber is suspended (engine side runs), sole access.
        unsafe { (*self.data).finished }
    }

    /// Switch into the fiber, telling it `why`, until it yields or finishes;
    /// returns the message it left in the handoff slot.
    pub(crate) fn resume(&mut self, why: Resume) -> Option<YieldMsg> {
        // SAFETY: the cell is ours while the fiber is suspended; the switch
        // transfers control to exactly one other continuation which switches
        // back here before the engine continues.
        unsafe {
            debug_assert!(!(*self.data).finished, "resume of finished fiber");
            (*self.data).started = true;
            (*self.data).resume = why;
            raw_switch(
                &mut (*self.data).engine_sp,
                std::ptr::addr_of!((*self.data).fiber_sp),
            );
            (*self.data).msg.take()
        }
    }

    /// Force a started-but-unfinished fiber to completion by resuming it
    /// with [`Resume::Abort`]: the yield it is suspended in unwinds the rank
    /// body (so destructors on the fiber stack run), the unwind is caught at
    /// the entry point, and the fiber finishes. No-op for new/finished
    /// fibers.
    fn abort(&mut self) {
        // SAFETY: engine side runs; sole access to the cell.
        unsafe {
            if !(*self.data).started || (*self.data).finished {
                return;
            }
            self.resume(Resume::Abort);
            debug_assert!((*self.data).finished, "aborted fiber failed to finish");
        }
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        // A live suspended body would leak its stack frames (and skip its
        // destructors) if we just unmapped the stack underneath it.
        self.abort();
        // SAFETY: `data` came from `Box::into_raw` in `new`; the fiber is
        // finished (or never started), so nothing aliases it.
        unsafe { drop(Box::from_raw(self.data)) };
        release_stack(std::mem::replace(
            &mut self.stack,
            RawStack {
                base: std::ptr::null_mut(),
                len: 0,
            },
        ));
    }
}

/// Yield from inside a fiber back to the engine (called by `RankCtx` through
/// its data-cell pointer). The message must already be in `data.msg`.
///
/// # Safety
///
/// Must be called on the fiber whose cell `data` is, i.e. from code running
/// on that fiber's stack after the engine resumed it.
pub(crate) unsafe fn yield_to_engine(data: *mut FiberData) {
    // SAFETY: per contract we are the running fiber; the engine side is
    // suspended inside `resume`, which owns the matching `engine_sp`.
    unsafe {
        raw_switch(&mut (*data).fiber_sp, std::ptr::addr_of!((*data).engine_sp));
    }
}

/// First instructions ever executed on a fiber stack. Entered via `ret` with
/// the data-cell pointer parked in `r12` by [`Fiber::new`]'s stack seeding.
#[unsafe(naked)]
unsafe extern "sysv64" fn fiber_trampoline() {
    core::arch::naked_asm!(
        "mov rdi, r12",
        "call {entry}",
        // `fiber_entry` never returns; make any miscompile loudly fatal.
        "ud2",
        entry = sym fiber_entry,
    )
}

/// Rust-level fiber main: run the rank body under `catch_unwind`, convert a
/// panic into a `Panicked` handoff, then park forever as finished. The final
/// switch hands control back to the engine and this frame is never resumed.
unsafe extern "sysv64" fn fiber_entry(data: *mut FiberData) {
    // SAFETY: the engine seeded `entry` and is suspended in `resume`.
    let entry = unsafe { (*data).entry.take().expect("fiber entered twice") };
    let result = catch_unwind(AssertUnwindSafe(move || entry(data)));
    if let Err(payload) = result {
        let msg = crate::engine::panic_message(payload.as_ref());
        // SAFETY: sole runner of this cell until the switch below.
        unsafe { (*data).msg = Some(YieldMsg::Panicked(msg)) };
    }
    unsafe { (*data).finished = true };
    loop {
        // SAFETY: switching back to the engine, which never resumes a
        // finished fiber (the loop is belt-and-braces).
        unsafe { yield_to_engine(data) };
    }
}

/// The context switch: save the callee-saved sysv64 registers and the stack
/// pointer into `*save`, then restore `*restore` and return on that stack.
/// Caller-saved registers are spilled by the compiler around the call.
#[unsafe(naked)]
unsafe extern "sysv64" fn raw_switch(save: *mut usize, restore: *const usize) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fiber_runs_yields_and_finishes() {
        let mut f = Fiber::new(Box::new(|data| {
            for i in 0..3u64 {
                // SAFETY: running on the fiber; strict handoff.
                unsafe {
                    (*data).msg = Some(YieldMsg::Sleep(i));
                    yield_to_engine(data);
                }
            }
        }))
        .unwrap();
        for i in 0..3u64 {
            match f.resume(Resume::Run) {
                Some(YieldMsg::Sleep(t)) => assert_eq!(t, i),
                other => panic!("unexpected yield {other:?}"),
            }
            assert!(!f.is_finished());
        }
        assert!(f.resume(Resume::Run).is_none());
        assert!(f.is_finished());
    }

    #[test]
    fn fiber_panic_is_contained() {
        let mut f = Fiber::new(Box::new(|_| panic!("kaboom"))).unwrap();
        match f.resume(Resume::Run) {
            Some(YieldMsg::Panicked(m)) => assert!(m.contains("kaboom")),
            other => panic!("unexpected yield {other:?}"),
        }
        assert!(f.is_finished());
    }

    #[test]
    fn abort_runs_destructors_on_fiber_stack() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        struct Flag(Arc<AtomicBool>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicBool::new(false));
        let flag = Flag(Arc::clone(&dropped));
        let mut f = Fiber::new(Box::new(move |data| {
            let _guard = flag;
            loop {
                // SAFETY: running on the fiber; strict handoff.
                unsafe {
                    (*data).msg = Some(YieldMsg::Wait {
                        after: 0,
                        charge: 0,
                    });
                    yield_to_engine(data);
                    if (*data).resume == Resume::Abort {
                        std::panic::resume_unwind(Box::new(()));
                    }
                }
            }
        }))
        .unwrap();
        assert!(matches!(
            f.resume(Resume::Run),
            Some(YieldMsg::Wait {
                after: 0,
                charge: 0
            })
        ));
        assert!(!dropped.load(std::sync::atomic::Ordering::SeqCst));
        f.abort();
        assert!(dropped.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn stacks_are_pooled_across_fibers() {
        let f = Fiber::new(Box::new(|_| {})).unwrap();
        let base = f.stack.base as usize;
        drop(f); // body never started: dropped without running
        let f2 = Fiber::new(Box::new(|_| {})).unwrap();
        assert_eq!(f2.stack.base as usize, base, "stack not reused from pool");
    }

    #[test]
    fn deep_call_stacks_fit() {
        fn recurse(n: usize) -> usize {
            let pad = [n; 16]; // keep frames honest
            if n == 0 {
                pad[0]
            } else {
                recurse(n - 1) + pad[15].min(1)
            }
        }
        let mut f = Fiber::new(Box::new(|data| {
            let depth = recurse(2000);
            // SAFETY: running on the fiber; strict handoff.
            unsafe {
                (*data).msg = Some(YieldMsg::Sleep(depth as u64));
                yield_to_engine(data);
            }
        }))
        .unwrap();
        assert!(matches!(f.resume(Resume::Run), Some(YieldMsg::Sleep(2000))));
    }
}
