//! Offline shim for the `nix` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the API subset it uses: `nix::poll` — [`poll::poll`] over
//! [`poll::PollFd`] / [`poll::PollFlags`] / [`poll::PollTimeout`] — plus
//! the [`errno::Errno`] it fails with. Names and signatures are a subset
//! of nix 0.29's, so the server's event core compiles unchanged against
//! the real crate.
//!
//! This is the one crate in the workspace without
//! `#![forbid(unsafe_code)]`: readiness of many sockets at once has no
//! safe-std spelling, so the single `unsafe` block of the repository
//! lives here, around the foreign `poll(2)` call and nothing else (CI
//! greps that it stays the only one).
//!
//! # Deviation from the real crate
//!
//! [`poll::poll`] retries `EINTR` itself, with the original timeout.
//! The real crate surfaces `Errno::EINTR` and every caller loops; this
//! workspace installs no signal handlers, so an interrupted wait carries
//! no information. A caller written for the real behaviour (loop on
//! `Errno::EINTR`) is equally correct against this shim — the arm is
//! just never taken.

#![cfg(unix)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

/// `nix::Result`: every fallible call fails with an [`errno::Errno`].
pub type Result<T> = std::result::Result<T, errno::Errno>;

/// The error numbers [`poll::poll`] fails with.
pub mod errno {
    /// A subset of the real `Errno` enum: the two values this workspace
    /// tells apart, with everything else folded into
    /// [`Errno::UnknownErrno`]. Both numbers are the same on every unix.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    #[repr(i32)]
    #[non_exhaustive]
    pub enum Errno {
        /// Any error number this shim does not name.
        UnknownErrno = 0,
        /// A signal arrived before any requested event.
        EINTR = 4,
        /// More descriptors than `RLIMIT_NOFILE` allows.
        EINVAL = 22,
    }

    impl Errno {
        /// The variant for a raw `errno` value.
        pub const fn from_raw(err: i32) -> Errno {
            match err {
                4 => Errno::EINTR,
                22 => Errno::EINVAL,
                _ => Errno::UnknownErrno,
            }
        }

        /// The calling thread's current `errno`.
        pub fn last() -> Errno {
            Errno::from_raw(std::io::Error::last_os_error().raw_os_error().unwrap_or(0))
        }
    }

    impl std::fmt::Display for Errno {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{self:?}")
        }
    }

    impl std::error::Error for Errno {}
}

/// Wait for events on a set of file descriptors: `poll(2)`.
pub mod poll {
    use std::ffi::{c_int, c_short};
    use std::marker::PhantomData;
    use std::os::fd::{AsRawFd, BorrowedFd};
    use std::time::Duration;

    use crate::errno::Errno;
    use crate::Result;

    /// The C `struct pollfd` (identical on every unix).
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    struct RawPollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    mod sys {
        /// The C `nfds_t`.
        #[cfg(any(target_os = "linux", target_os = "android"))]
        pub(super) type Nfds = std::ffi::c_ulong;
        #[cfg(not(any(target_os = "linux", target_os = "android")))]
        pub(super) type Nfds = std::ffi::c_uint;

        extern "C" {
            pub(super) fn poll(
                fds: *mut super::RawPollFd,
                nfds: Nfds,
                timeout: std::ffi::c_int,
            ) -> std::ffi::c_int;
        }
    }

    /// Event bits requested from and reported by [`poll`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct PollFlags(c_short);

    impl PollFlags {
        /// There is data to read (or a peer's end-of-stream).
        pub const POLLIN: Self = Self(0x001);
        /// Writing is possible without blocking.
        pub const POLLOUT: Self = Self(0x004);
        /// Error condition (reported even when not requested).
        pub const POLLERR: Self = Self(0x008);
        /// Hang up (reported even when not requested).
        pub const POLLHUP: Self = Self(0x010);
        /// The descriptor is not open (reported even when not requested).
        pub const POLLNVAL: Self = Self(0x020);

        const ALL: c_short = 0x001 | 0x004 | 0x008 | 0x010 | 0x020;

        /// No bits set.
        pub const fn empty() -> Self {
            Self(0)
        }

        /// The flags for raw bits; `None` if a bit this type does not
        /// name is set.
        pub const fn from_bits(bits: c_short) -> Option<Self> {
            if bits & !Self::ALL == 0 {
                Some(Self(bits))
            } else {
                None
            }
        }

        /// The bits set in either.
        #[must_use]
        pub const fn union(self, other: Self) -> Self {
            Self(self.0 | other.0)
        }

        /// Whether no bit is set.
        pub const fn is_empty(&self) -> bool {
            self.0 == 0
        }

        /// Whether every bit of `other` is set.
        pub const fn contains(&self, other: Self) -> bool {
            self.0 & other.0 == other.0
        }

        /// Whether any bit of `other` is set.
        pub const fn intersects(&self, other: Self) -> bool {
            self.0 & other.0 != 0
        }
    }

    impl std::ops::BitOr for PollFlags {
        type Output = Self;
        fn bitor(self, other: Self) -> Self {
            self.union(other)
        }
    }

    impl std::ops::BitOrAssign for PollFlags {
        fn bitor_assign(&mut self, other: Self) {
            *self = self.union(other);
        }
    }

    /// One entry of a [`poll`] set: a borrowed descriptor, the events
    /// asked about, and (after the call) the events that occurred. The
    /// borrow keeps the descriptor open for as long as the entry lives.
    #[repr(transparent)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd<'fd> {
        pollfd: RawPollFd,
        _fd: PhantomData<BorrowedFd<'fd>>,
    }

    impl<'fd> PollFd<'fd> {
        /// An entry asking about `events` on `fd`. With empty `events`
        /// only `POLLERR` / `POLLHUP` / `POLLNVAL` can be reported.
        pub fn new(fd: BorrowedFd<'fd>, events: PollFlags) -> PollFd<'fd> {
            PollFd {
                pollfd: RawPollFd {
                    fd: fd.as_raw_fd(),
                    events: events.0,
                    revents: 0,
                },
                _fd: PhantomData,
            }
        }

        /// What the last [`poll`] reported for this entry; `None` if the
        /// kernel set a bit [`PollFlags`] does not name.
        pub fn revents(&self) -> Option<PollFlags> {
            PollFlags::from_bits(self.pollfd.revents)
        }
    }

    /// How long [`poll`] may block, in whole milliseconds — the unit of
    /// the system call itself.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub struct PollTimeout(i32);

    impl PollTimeout {
        /// Block until an event occurs, however long that takes.
        pub const NONE: Self = Self(-1);
        /// Return immediately, events or not.
        pub const ZERO: Self = Self(0);
        /// The longest finite wait (about 24.8 days).
        pub const MAX: Self = Self(i32::MAX);
    }

    /// A `Duration` too long to count in `i32` milliseconds.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum PollTimeoutTryFromError {
        /// Longer than [`PollTimeout::MAX`].
        TooPositive,
    }

    impl TryFrom<Duration> for PollTimeout {
        type Error = PollTimeoutTryFromError;
        /// Truncates to whole milliseconds, as the real crate does: a
        /// caller that must not wake early rounds up first.
        fn try_from(d: Duration) -> std::result::Result<Self, Self::Error> {
            i32::try_from(d.as_millis())
                .map(Self)
                .map_err(|_| PollTimeoutTryFromError::TooPositive)
        }
    }

    /// Blocks until an event requested in `fds` occurs, `timeout`
    /// passes, or (never, here — see the crate docs) a signal arrives;
    /// returns how many entries have non-empty `revents`.
    pub fn poll<T: Into<PollTimeout>>(fds: &mut [PollFd], timeout: T) -> Result<c_int> {
        let timeout = timeout.into();
        retry_interrupted(|| poll_once(fds, timeout))
    }

    fn poll_once(fds: &mut [PollFd], timeout: PollTimeout) -> Result<c_int> {
        let nfds = sys::Nfds::try_from(fds.len()).map_err(|_| Errno::EINVAL)?;
        // SAFETY: `PollFd` is `repr(transparent)` over the C `struct
        // pollfd`, so the slice is `nfds` contiguous, initialized
        // `pollfd`s; the exclusive borrow makes the kernel the only
        // writer for the duration of the call, and it writes `revents`
        // only. `poll` dereferences nothing else, and a descriptor that
        // is not open is reported (`POLLNVAL`), not undefined.
        let ready = unsafe { sys::poll(fds.as_mut_ptr().cast::<RawPollFd>(), nfds, timeout.0) };
        if ready < 0 {
            Err(Errno::last())
        } else {
            Ok(ready)
        }
    }

    /// Calls `call` until it returns anything but `Errno::EINTR`.
    fn retry_interrupted(mut call: impl FnMut() -> Result<c_int>) -> Result<c_int> {
        loop {
            match call() {
                Err(Errno::EINTR) => {}
                other => return other,
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::Write;
        use std::os::fd::AsFd;
        use std::os::unix::net::UnixStream;
        use std::time::Instant;

        #[test]
        fn a_socket_with_pending_bytes_polls_readable() {
            let (mut a, b) = UnixStream::pair().unwrap();
            let mut fds = [PollFd::new(b.as_fd(), PollFlags::POLLIN)];
            assert_eq!(poll(&mut fds, PollTimeout::ZERO), Ok(0), "nothing sent yet");
            assert_eq!(fds[0].revents(), Some(PollFlags::empty()));

            a.write_all(b"x").unwrap();
            assert_eq!(poll(&mut fds, PollTimeout::NONE), Ok(1));
            assert_eq!(fds[0].revents(), Some(PollFlags::POLLIN));
        }

        #[test]
        fn a_fresh_socket_polls_writable_and_only_asked_entries_count() {
            let (a, b) = UnixStream::pair().unwrap();
            let mut fds = [
                PollFd::new(a.as_fd(), PollFlags::POLLIN | PollFlags::POLLOUT),
                PollFd::new(b.as_fd(), PollFlags::POLLIN),
            ];
            assert_eq!(poll(&mut fds, PollTimeout::NONE), Ok(1));
            assert_eq!(fds[0].revents(), Some(PollFlags::POLLOUT));
            assert_eq!(fds[1].revents(), Some(PollFlags::empty()));
        }

        #[test]
        fn the_timeout_expires_with_nothing_ready() {
            let (_a, b) = UnixStream::pair().unwrap();
            let mut fds = [PollFd::new(b.as_fd(), PollFlags::POLLIN)];
            let started = Instant::now();
            assert_eq!(poll(&mut fds, PollTimeout(40)), Ok(0));
            let elapsed = started.elapsed();
            assert!(
                elapsed >= Duration::from_millis(40),
                "woke after {elapsed:?}"
            );
            assert!(
                poll(&mut [], PollTimeout::ZERO) == Ok(0),
                "an empty set is a sleep"
            );
        }

        #[test]
        fn an_untimed_wait_is_ended_by_a_write_from_another_thread() {
            let (mut a, b) = UnixStream::pair().unwrap();
            let delay = Duration::from_millis(60);
            let started = Instant::now();
            let writer = std::thread::spawn(move || {
                std::thread::sleep(delay);
                a.write_all(b"wake").unwrap();
                a
            });
            let mut fds = [PollFd::new(b.as_fd(), PollFlags::POLLIN)];
            // No timeout: only the write can end this call. It returns
            // no earlier than the write, so it neither spun out early
            // nor (the test finishing at all) missed the wake-up.
            assert_eq!(poll(&mut fds, PollTimeout::NONE), Ok(1));
            assert!(started.elapsed() >= delay);
            assert_eq!(fds[0].revents(), Some(PollFlags::POLLIN));
            drop(writer.join().unwrap());
        }

        #[test]
        fn a_closed_peer_reports_hangup_even_with_no_interest() {
            let (a, b) = UnixStream::pair().unwrap();
            drop(a);
            let mut fds = [PollFd::new(b.as_fd(), PollFlags::empty())];
            assert_eq!(poll(&mut fds, PollTimeout::NONE), Ok(1));
            let revents = fds[0].revents().unwrap();
            assert!(revents.contains(PollFlags::POLLHUP), "{revents:?}");
            assert!(!revents.intersects(PollFlags::POLLIN | PollFlags::POLLOUT));
        }

        #[test]
        fn interrupted_calls_are_retried_and_other_results_are_not() {
            let mut calls = 0;
            let result = retry_interrupted(|| {
                calls += 1;
                if calls < 3 {
                    Err(Errno::EINTR)
                } else {
                    Ok(7)
                }
            });
            assert_eq!((result, calls), (Ok(7), 3));

            let mut calls = 0;
            let result = retry_interrupted(|| {
                calls += 1;
                Err(Errno::EINVAL)
            });
            assert_eq!((result, calls), (Err(Errno::EINVAL), 1));
            assert_eq!(Errno::from_raw(4), Errno::EINTR);
        }

        #[test]
        fn durations_convert_to_whole_milliseconds_or_refuse() {
            assert_eq!(
                PollTimeout::try_from(Duration::from_micros(2_900)),
                Ok(PollTimeout(2))
            );
            assert_eq!(
                PollTimeout::try_from(Duration::from_micros(100)),
                Ok(PollTimeout::ZERO),
                "sub-millisecond waits cannot be expressed"
            );
            assert_eq!(
                PollTimeout::try_from(Duration::from_secs(u64::from(u32::MAX))),
                Err(PollTimeoutTryFromError::TooPositive)
            );
            assert!(PollTimeout::NONE < PollTimeout::ZERO && PollTimeout::ZERO < PollTimeout::MAX);
        }
    }
}
