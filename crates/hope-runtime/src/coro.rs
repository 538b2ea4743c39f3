//! Stackful coroutines on the caller's thread: the crate's only `unsafe`.
//!
//! A [`Coroutine`] runs a body on a [`Stack`] of its own. [`Coroutine::resume`]
//! switches onto that stack and returns when the body calls
//! [`Yielder::suspend`] or finishes; the switch saves and restores only
//! what the x86_64 SysV ABI makes the callee keep (rbx, rbp, r12–r15,
//! MXCSR and the x87 control word), so a turn costs a few tens of
//! nanoseconds and no system call.
//!
//! Three rules keep the stacks sound:
//! - no unwind leaves a body: the entry function catches every panic and
//!   leaks its payload, since the trampoline below the body has no unwind
//!   information;
//! - a coroutine is never dropped mid-turn: `Drop` resumes a suspended body
//!   once, with [`Yielder::suspend`] answering `false` from then on, and
//!   waits for it to finish, so every frame on the stack is gone before the
//!   stack is reused or unmapped;
//! - nothing here is `Send`: a suspended stack may hold borrows of the
//!   thread's locals.
//!
//! A stack outlives its coroutine: once the coroutine is dropped, the
//! stack goes to its thread's free list, and [`Stack::take`] maps a new
//! one only when that list is empty. So a thread holds at most its own peak of live coroutines'
//! stacks, with their touched pages resident, and a runtime built on a
//! warm thread maps none; the list unmaps what it holds when its thread
//! exits.

#[cfg(not(target_arch = "x86_64"))]
compile_error!("hope-runtime's coroutine switch (src/coro.rs) is written for x86_64 only");

use std::arch::naked_asm;
use std::cell::RefCell;
use std::ffi::{c_int, c_void};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};

/// Bytes mapped per stack, the same as a spawned thread's default.
const STACK_BYTES: usize = 2 << 20;
/// The `PROT_NONE` page at the low end that turns an overflow into SIGSEGV.
const GUARD_BYTES: usize = 4096;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;

unsafe extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// One mapped coroutine stack: [`STACK_BYTES`] reserved but not committed
/// (`MAP_NORESERVE`), its lowest page a guard.
pub(crate) struct Stack {
    base: NonNull<u8>,
}

/// The bases of the stacks this thread's finished coroutines left, each
/// mapped as [`Stack::map`] maps one and used by no one.
struct FreeStacks(RefCell<Vec<NonNull<u8>>>);

thread_local! {
    static FREE: FreeStacks = const { FreeStacks(RefCell::new(Vec::new())) };
}

impl Drop for FreeStacks {
    fn drop(&mut self) {
        for base in self.0.get_mut().drain(..) {
            // SAFETY: a dropped `Stack` handed its own mapping over, and
            // nothing runs on a stack in this list.
            unsafe { munmap(base.as_ptr().cast(), STACK_BYTES) };
        }
    }
}

impl Stack {
    /// A stack from this thread's free list, or a new mapping if the list
    /// is empty; true if it is new.
    pub fn take() -> (Stack, bool) {
        match FREE.try_with(|free| free.0.borrow_mut().pop()) {
            Ok(Some(base)) => (Stack { base }, false),
            _ => (Stack::map(), true),
        }
    }

    /// Maps a fresh stack.
    ///
    /// # Panics
    ///
    /// Panics if the kernel refuses the mapping.
    fn map() -> Stack {
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // touches no existing memory.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                STACK_BYTES,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        assert!(
            base as usize != usize::MAX,
            "mapping a coroutine stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the first page lies inside the mapping made above, which
        // nothing else refers to yet.
        let guarded = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert_eq!(
            guarded,
            0,
            "protecting a coroutine stack's guard page failed: {}",
            std::io::Error::last_os_error()
        );
        Stack {
            base: NonNull::new(base.cast()).expect("mmap never maps page zero"),
        }
    }

    /// One past the highest byte; page-aligned, so 16-byte-aligned.
    fn top(&self) -> *mut u8 {
        self.base.as_ptr().wrapping_add(STACK_BYTES)
    }
}

/// Back onto the thread's free list; unmapped if the thread's locals are
/// already gone.
impl Drop for Stack {
    fn drop(&mut self) {
        let base = self.base;
        if FREE
            .try_with(|free| free.0.borrow_mut().push(base))
            .is_err()
        {
            // SAFETY: the mapping is this `Stack`'s own, and whoever ran on
            // it has finished: a `Coroutine` holds its stack until its body
            // is done.
            unsafe { munmap(base.as_ptr().cast(), STACK_BYTES) };
        }
    }
}

/// Saves the callee-saved state on the current stack, stores the stack
/// pointer in `*save`, then loads `load` as the stack pointer and restores
/// the state saved there, returning into whatever switched away from it.
///
/// # Safety
///
/// `save` must be valid for a write, and `load` must be a stack pointer
/// saved by this function (or laid out as [`Coroutine::new`] lays one out)
/// whose stack is still mapped and has not been resumed since.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch(save: *mut *mut u8, load: *mut u8) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a fresh coroutine's first switch returns to, with the stack
/// pointer 16-byte-aligned: calls the entry function in r12 with the
/// argument in r13. The entry function never returns.
///
/// # Safety
///
/// Only reached through [`switch`] onto a frame [`Coroutine::new`] laid out.
#[unsafe(naked)]
unsafe extern "sysv64" fn trampoline() {
    naked_asm!("mov rdi, r13", "call r12", "ud2")
}

/// Default MXCSR (all exceptions masked, round to nearest) and x87 control
/// word, packed as [`switch`] saves them.
const FRESH_FP_STATE: u64 = 0x1F80 | (0x037F << 32);

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Fresh,
    Suspended,
    Finished,
}

/// A coroutine's body: run once, handed its [`Yielder`].
type Body<O> = Box<dyn FnOnce(&mut Yielder<O>) -> O>;

/// What both sides of one coroutine reach through a raw pointer.
struct Inner<O> {
    /// The resumer's stack pointer while the body runs.
    caller_sp: *mut u8,
    /// The body's stack pointer while it is suspended.
    own_sp: *mut u8,
    body: Option<Body<O>>,
    /// The value the last switch out carried; `None` after a lost body.
    out: Option<O>,
    state: State,
    /// Set by `Drop`: the body is running out, and may not switch out.
    closing: bool,
}

/// A body running on a stack of its own, resumed by its owner.
pub(crate) struct Coroutine<O> {
    /// Freed in `Drop`; only ever used through this pointer.
    inner: *mut Inner<O>,
    /// Dropped after `Drop` has run the body out, so back to the free list
    /// with no frame on it.
    _stack: Stack,
}

/// The body's handle on its coroutine.
pub(crate) struct Yielder<O> {
    inner: *mut Inner<O>,
}

impl<O> Coroutine<O> {
    /// Lays out `stack` so the first [`Coroutine::resume`] starts `body`.
    /// The body's return value is the last value `resume` gives.
    pub fn new(stack: Stack, body: impl FnOnce(&mut Yielder<O>) -> O + 'static) -> Self {
        let inner = Box::into_raw(Box::new(Inner {
            caller_sp: ptr::null_mut(),
            own_sp: ptr::null_mut(),
            body: Some(Box::new(body)),
            out: None,
            state: State::Fresh,
            closing: false,
        }));
        // The frame `switch` pops, lowest address first: FP state, r15, r14,
        // r13 (entry's argument), r12 (entry), rbx, rbp (zero ends a
        // frame-pointer walk), then the return address. Popping all eight
        // words leaves the stack pointer at `top`, 16-byte-aligned.
        let frame: [u64; 8] = [
            FRESH_FP_STATE,
            0,
            0,
            inner as u64,
            entry::<O> as *const () as u64,
            0,
            0,
            trampoline as *const () as u64,
        ];
        let sp = stack.top().wrapping_sub(std::mem::size_of_val(&frame));
        // SAFETY: the 64 bytes below `top` lie in the stack's writable
        // mapping, which no coroutine is using, and `sp` is 16-aligned.
        unsafe {
            ptr::write(sp.cast::<[u64; 8]>(), frame);
            (*inner).own_sp = sp;
        }
        Coroutine {
            inner,
            _stack: stack,
        }
    }

    /// Runs the body until it suspends or finishes, and returns what it
    /// handed over; `None` if a panic escaped the body.
    ///
    /// # Panics
    ///
    /// Panics if the body has already finished.
    pub fn resume(&mut self) -> Option<O> {
        let inner = self.inner;
        // SAFETY: `inner` is live until `Drop`; the body is not running (we
        // are), so nothing else touches it.
        unsafe {
            assert!(
                (*inner).state != State::Finished,
                "resumed a finished coroutine"
            );
            // SAFETY: `own_sp` was saved by the body's last `switch` (or
            // laid out by `new`), and its stack is `self._stack`, mapped.
            switch(&mut (*inner).caller_sp, (*inner).own_sp);
            (*inner).out.take()
        }
    }

    /// True once the body has returned or lost a panic.
    #[cfg(test)]
    fn finished(&self) -> bool {
        // SAFETY: `inner` is live until `Drop` and the body is not running.
        unsafe { (*self.inner).state == State::Finished }
    }
}

impl<O> Drop for Coroutine<O> {
    fn drop(&mut self) {
        let inner = self.inner;
        // SAFETY: `inner` came from `Box::into_raw` and is freed only here.
        // A suspended body is resumed once to run out (every `suspend` now
        // answers `false` without switching) before its stack goes.
        unsafe {
            if (*inner).state == State::Suspended {
                (*inner).closing = true;
                // SAFETY: as in `resume`; the body finishes before it
                // switches back, since it may no longer suspend.
                switch(&mut (*inner).caller_sp, (*inner).own_sp);
            }
            drop(Box::from_raw(inner));
        }
    }
}

impl<O> Yielder<O> {
    /// Hands `out` to the resumer and waits for the next resume. Returns
    /// `false`, at once and without handing `out` over, once the coroutine
    /// is being dropped: the body should run out.
    pub fn suspend(&mut self, out: O) -> bool {
        let inner = self.inner;
        // SAFETY: the body runs only while its resumer waits in `switch`,
        // and `inner` outlives the body (`Drop` runs it out first).
        unsafe {
            if (*inner).closing {
                return false;
            }
            (*inner).out = Some(out);
            (*inner).state = State::Suspended;
            // SAFETY: `caller_sp` was saved by the `switch` that resumed us,
            // on a stack that waits for us to come back.
            switch(&mut (*inner).own_sp, (*inner).caller_sp);
            !(*inner).closing
        }
    }
}

/// Runs the body to its end, catching every panic, then switches out for
/// the last time.
///
/// # Safety
///
/// Called only by [`trampoline`], with the `Inner` of the coroutine whose
/// stack it runs on.
unsafe extern "sysv64" fn entry<O>(inner: *mut Inner<O>) -> ! {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // SAFETY: the resumer waits in `switch` while the body runs.
        let body = unsafe { (*inner).body.take() }.expect("a body starts once");
        body(&mut Yielder { inner })
    }));
    // SAFETY: as above; from here on nothing on this stack owns anything.
    unsafe {
        match outcome {
            Ok(out) => (*inner).out = Some(out),
            // The payload may panic again when dropped, here where no unwind
            // can be caught: leak it.
            Err(payload) => std::mem::forget(payload),
        }
        (*inner).state = State::Finished;
        // SAFETY: as in `Yielder::suspend`; no one resumes a finished body.
        switch(&mut (*inner).own_sp, (*inner).caller_sp);
    }
    std::process::abort()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn values_are_yielded_and_resumed_in_order() {
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let l = log.clone();
        let mut co = Coroutine::new(Stack::take().0, move |y| {
            for i in 0..3 {
                l.borrow_mut().push(format!("body {i}"));
                assert!(y.suspend(i));
            }
            l.borrow_mut().push("body done".to_string());
            99
        });
        for i in 0..3 {
            assert_eq!(co.resume(), Some(i));
            log.borrow_mut().push(format!("caller {i}"));
        }
        assert!(!co.finished());
        assert_eq!(co.resume(), Some(99));
        assert!(co.finished());
        assert_eq!(
            *log.borrow(),
            [
                "body 0",
                "caller 0",
                "body 1",
                "caller 1",
                "body 2",
                "caller 2",
                "body done"
            ]
        );
    }

    /// A panic payload whose drop panics again.
    struct PanicOnDrop;

    impl Drop for PanicOnDrop {
        fn drop(&mut self) {
            panic!("payload dropped");
        }
    }

    #[test]
    fn a_body_panic_is_caught_inside_the_coroutine() {
        let mut co = Coroutine::<u32>::new(Stack::take().0, |y| {
            y.suspend(1);
            panic!("body-boom")
        });
        assert_eq!(co.resume(), Some(1));
        assert_eq!(co.resume(), None, "a lost body hands nothing over");
        assert!(co.finished());
        // Even a payload that panics on drop stays inside.
        let mut co = Coroutine::<u32>::new(Stack::take().0, |_| std::panic::panic_any(PanicOnDrop));
        assert_eq!(co.resume(), None);
        assert!(co.finished());
        assert!(!std::thread::panicking());
    }

    /// Sets its flag when dropped.
    struct DropFlag(Rc<Cell<bool>>);

    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.set(true);
        }
    }

    #[test]
    fn dropping_a_suspended_coroutine_runs_its_destructors() {
        let dropped = Rc::new(Cell::new(false));
        let answered = Rc::new(Cell::new(None));
        let (d, a) = (dropped.clone(), answered.clone());
        let mut co = Coroutine::new(Stack::take().0, move |y| {
            let _flag = DropFlag(d);
            let resumed = y.suspend(());
            // Running out: a later suspend answers at once.
            a.set(Some((resumed, y.suspend(()))));
        });
        assert_eq!(co.resume(), Some(()));
        assert!(!dropped.get());
        drop(co);
        assert!(dropped.get());
        assert_eq!(answered.get(), Some((false, false)));

        // A never-resumed body is dropped without running.
        let dropped = Rc::new(Cell::new(false));
        let flag = DropFlag(dropped.clone());
        let co = Coroutine::new(Stack::take().0, move |_| drop(flag));
        drop(co);
        assert!(dropped.get());
    }

    #[test]
    fn a_returned_stack_is_reused_not_remapped() {
        fn local_address(_: &mut Yielder<usize>) -> usize {
            let local = 0u8;
            std::hint::black_box(&local) as *const u8 as usize
        }
        // On a thread of its own, whose free list starts empty.
        std::thread::spawn(|| {
            let (stack, fresh) = Stack::take();
            assert!(fresh, "a new thread maps its first stack");
            let (low, high) = (stack.base.as_ptr() as usize, stack.top() as usize);
            let mut first = Coroutine::new(stack, local_address);
            let first_at = first.resume().unwrap();
            assert!((low..high).contains(&first_at));
            drop(first);
            let (stack, fresh) = Stack::take();
            assert!(!fresh, "the finished coroutine's stack came back");
            let mut second = Coroutine::new(stack, local_address);
            assert_eq!(
                second.resume(),
                Some(first_at),
                "the second body ran on the first one's memory"
            );
        })
        .join()
        .unwrap();
    }
}
