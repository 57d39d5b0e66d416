//! Instrumented threads and synthetic call stacks.
//!
//! The original tool replaces `PIN_Backtrace` with cheap call/return
//! instrumentation (§4). Our substrate does the analogue: application code
//! pushes named frames ([`PmThread::frame`]) around logical operations, and
//! every PM access captures the current frame stack plus its own
//! `#[track_caller]` source location as the innermost frame. The result is
//! the backtrace attached to every event — what lets a race report say
//! "store at `btree.h:560` in `fastfair::insert`".
//!
//! Keeping that cheap takes three things. Frame names are `'static`, so a
//! push stores two references and allocates nothing. Each push names the
//! frame stack it opens with a small per-thread node id, keyed by the
//! addresses of its immutable parts. And each thread memoizes the interned
//! [`StackId`] of every (node, access site) it has used, so only a
//! thread's *first* access from a given stack builds the `Frame` list and
//! interns it; every later one is a single small-integer lookup. A
//! `StackId` is only valid in the trace builder that issued it, so each
//! memo entry carries that builder's process-unique id and is used only
//! for the same builder.

use std::cell::RefCell;
use std::panic::Location;

use hawkset_core::hash::FxHashMap;
use hawkset_core::trace::{Frame, StackId, ThreadId};

use crate::env::PmEnv;

/// One pushed application frame, and the node id of the frame stack it
/// ends.
#[derive(Clone, Copy, Debug)]
struct AppFrame {
    name: &'static str,
    at: &'static Location<'static>,
    node: u32,
}

/// Address of `'static` data, as a memo key part. Equal addresses of
/// immutable data always mean equal content.
fn addr<T: ?Sized>(r: &'static T) -> usize {
    r as *const T as *const () as usize
}

/// Per-thread instrumentation context.
///
/// A `PmThread` is created for you by [`PmEnv::main_thread`] and
/// [`PmEnv::spawn`]; every instrumented operation takes `&PmThread` so the
/// runtime knows the issuing thread and its current call stack.
pub struct PmThread {
    env: PmEnv,
    tid: ThreadId,
    frames: RefCell<Vec<AppFrame>>,
    /// Node id of each frame stack this thread opened, keyed by (parent
    /// node, name address, name length, push-site address). Node 0 is the
    /// empty stack.
    nodes: RefCell<FxHashMap<(u32, usize, usize, usize), u32>>,
    /// (node, access-site address) → (builder id, interned stack).
    memo: RefCell<FxHashMap<(u32, usize), (u64, StackId)>>,
}

impl PmThread {
    pub(crate) fn new(env: PmEnv, tid: ThreadId) -> Self {
        Self {
            env,
            tid,
            frames: RefCell::new(Vec::new()),
            nodes: RefCell::default(),
            memo: RefCell::default(),
        }
    }

    /// The thread's id in the trace.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// The environment this thread belongs to.
    pub fn env(&self) -> &PmEnv {
        &self.env
    }

    /// Pushes a named frame for the duration of the returned guard.
    ///
    /// `name` is `'static` (a literal, or a choice between literals):
    /// pushing a frame then allocates nothing, and the recorder can
    /// recognize a repeated stack by the addresses of its names and push
    /// sites instead of rebuilding and hashing it on every access.
    ///
    /// # Examples
    ///
    /// ```ignore
    /// let _f = t.frame("fastfair::insert");
    /// // ... PM accesses recorded inside carry this frame ...
    /// ```
    #[track_caller]
    pub fn frame(&self, name: &'static str) -> FrameGuard<'_> {
        let at = Location::caller();
        let mut frames = self.frames.borrow_mut();
        let parent = frames.last().map_or(0, |f| f.node);
        let mut nodes = self.nodes.borrow_mut();
        let fresh = nodes.len() as u32 + 1;
        let node = *nodes
            .entry((parent, addr(name), name.len(), addr(at)))
            .or_insert(fresh);
        frames.push(AppFrame { name, at, node });
        FrameGuard { thread: self }
    }

    /// Issues a store fence (`sfence`): everything this thread flushed (and
    /// every non-temporal store it issued) is persistent afterwards.
    #[track_caller]
    pub fn fence(&self) {
        self.env.fence_at(self, Location::caller());
    }

    /// The function an access is attributed to: the innermost open
    /// frame's name, or `<app>` at top level.
    pub(crate) fn site_name(&self) -> &'static str {
        self.frames.borrow().last().map_or("<app>", |f| f.name)
    }

    /// Builds the current backtrace, innermost first, with `loc` as the
    /// access site. The innermost frame borrows the enclosing frame's name
    /// (or `<app>` at top level), mirroring how a PC-based backtrace names
    /// the containing function.
    pub(crate) fn capture_stack(&self, loc: &'static Location<'static>) -> Vec<Frame> {
        let frames = self.frames.borrow();
        let mut stack = Vec::with_capacity(frames.len() + 1);
        stack.push(Frame::new(self.site_name(), loc.file(), loc.line()));
        for f in frames.iter().rev() {
            stack.push(Frame::new(f.name, f.at.file(), f.at.line()));
        }
        stack
    }

    /// The id of the current backtrace at `loc` in the builder numbered
    /// `builder`. The thread's first use of a (frame stack, site) in that
    /// builder captures the stack and hands it to `intern`; later uses are
    /// answered from the memo.
    pub(crate) fn stack_id(
        &self,
        loc: &'static Location<'static>,
        builder: u64,
        intern: impl FnOnce(Vec<Frame>) -> StackId,
    ) -> StackId {
        let node = self.frames.borrow().last().map_or(0, |f| f.node);
        let key = (node, addr(loc));
        if let Some(&(b, id)) = self.memo.borrow().get(&key) {
            if b == builder {
                return id;
            }
        }
        let id = intern(self.capture_stack(loc));
        self.memo.borrow_mut().insert(key, (builder, id));
        id
    }
}

/// Pops its frame when dropped. Created by [`PmThread::frame`].
pub struct FrameGuard<'t> {
    thread: &'t PmThread,
}

impl Drop for FrameGuard<'_> {
    fn drop(&mut self) {
        self.thread.frames.borrow_mut().pop();
    }
}

/// Handle to an instrumented spawned thread.
///
/// Joining through [`PmJoinHandle::join`] records the `ThreadJoin` event
/// that establishes the happens-before edge used by the analysis.
pub struct PmJoinHandle<R> {
    pub(crate) inner: std::thread::JoinHandle<R>,
    pub(crate) child: ThreadId,
}

impl<R> PmJoinHandle<R> {
    /// The spawned thread's id.
    pub fn child_tid(&self) -> ThreadId {
        self.child
    }

    /// Waits for the thread and records the join edge on behalf of
    /// `joiner`, returning the child's panic payload instead of
    /// propagating it.
    ///
    /// The `ThreadJoin` event is recorded **even when the child panicked**:
    /// the OS-level join completed either way, so the happens-before edge
    /// is real, and dropping it would let the analysis pair the surviving
    /// threads' accesses against the dead thread's as if they were
    /// concurrent.
    #[track_caller]
    pub fn try_join(self, joiner: &PmThread) -> std::thread::Result<R> {
        let loc = Location::caller();
        let out = self.inner.join();
        joiner.env().join_at(joiner, self.child, loc);
        out
    }

    /// Waits for the thread and records the join edge on behalf of
    /// `joiner`.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the joined thread with its original payload
    /// (after the join edge is recorded), like
    /// [`std::thread::JoinHandle::join`] + `unwrap`.
    #[track_caller]
    pub fn join(self, joiner: &PmThread) -> R {
        match self.try_join(joiner) {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}
