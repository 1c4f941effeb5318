//! `ukevent`: readiness notification (epoll/eventfd) micro-library.
//!
//! The paper's §4.1 lists epoll and eventfd as *work in progress* in
//! Unikraft's POSIX layer; this crate closes that gap for unikraft-rs.
//! It provides the readiness-notification substrate that sits between
//! the network stack (producer side) and server applications (consumer
//! side), so that `httpd`-style servers multiplex a listener plus N
//! connections over one wait loop instead of busy-polling every socket.
//!
//! # Linux counterparts
//!
//! | unikraft-rs type | Linux counterpart | notes |
//! |---|---|---|
//! | [`EventQueue`] | `epoll` instance (`epoll_create1`) | interest list + ready scan |
//! | [`EventQueue::ctl_add`] / [`ctl_mod`](EventQueue::ctl_mod) / [`ctl_del`](EventQueue::ctl_del) | `epoll_ctl(EPOLL_CTL_ADD/MOD/DEL)` | same EEXIST/ENOENT errors |
//! | [`EventQueue::wait`] | `epoll_wait` | parks on a [`uksched::WaitQueue`] instead of spinning |
//! | [`EventQueue::poll_ready_into`] | `epoll_wait(.., timeout = 0)` | fills the caller's event array; [`poll_ready`](EventQueue::poll_ready) is the same scan into a fresh `Vec` |
//! | [`EventMask`] | `epoll_events` bits (`EPOLLIN`, `EPOLLOUT`, …) | includes `EPOLLET` / `EPOLLONESHOT` |
//! | [`EventFd`] | `eventfd2` | counter semantics incl. `EFD_SEMAPHORE` |
//! | [`ReadySource`] | the wait-queue head inside a `struct file` | producers publish edges here |
//! | [`Pollable`] | `file_operations.poll` | fd-bearing subsystems implement it |
//!
//! # Architecture
//!
//! A [`ReadySource`] is a small shared cell holding the current
//! level-triggered readiness of one file-like object. The producing
//! subsystem (a TCP connection in `uknetstack`, an [`EventFd`] counter)
//! updates it with [`ReadySource::set_level`]; the cell detects rising
//! edges, bumps an edge sequence number (consumed by `EPOLLET`
//! subscribers) and wakes every [`EventQueue`] watching it. A parked
//! `epoll_wait` caller is woken through the queue's
//! [`uksched::WaitQueue`] — wakeups are collected with
//! [`EventQueue::take_wakeups`] and handed to the scheduler, which is
//! exactly the "interrupt callback unblocks a receiving thread" shape
//! of §3.1 applied to readiness notification.
//!
//! # Example
//!
//! ```
//! use ukevent::{EventFd, EventQueue, EventMask};
//!
//! let mut q = EventQueue::new();
//! let mut efd = EventFd::new(0, 0).unwrap();
//! q.ctl_add(7, &efd, EventMask::IN).unwrap();
//!
//! assert!(q.poll_ready(8).is_empty()); // counter is zero
//! efd.write(3).unwrap();
//! let events = q.poll_ready(8);
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].token, 7);
//! assert!(events[0].events.contains(EventMask::IN));
//! assert_eq!(efd.read().unwrap(), 3);
//!
//! // An event loop keeps its event array, as `epoll_wait`'s caller
//! // does: no allocation per turn once it has held a full batch.
//! let mut events = Vec::with_capacity(8);
//! efd.write(1).unwrap();
//! q.poll_ready_into(&mut events, 8);
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].token, 7);
//! ```

pub mod eventfd;
pub mod mask;
pub mod queue;
pub mod source;

pub use eventfd::{EventFd, EFD_NONBLOCK, EFD_SEMAPHORE};
pub use mask::EventMask;
pub use queue::{Event, EventQueue, WaitOutcome};
pub use source::{Pollable, ReadySource};
