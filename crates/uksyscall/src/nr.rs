//! Syscall numbers (x86_64 Linux ABI) and Unikraft's supported set.
//!
//! The supported set is taken square-by-square from the paper's Figure 5
//! heatmap annotation — the numbered squares are the syscalls Unikraft
//! implements, and they sum to exactly the 146 the paper claims in §4.1.

use std::sync::LazyLock;

/// x86_64 syscall numbers for the names that appear in our application
/// requirement database and micro-libraries.
pub(crate) static SYSCALL_TABLE: &[(u32, &str)] = &[
    (0, "read"),
    (1, "write"),
    (2, "open"),
    (3, "close"),
    (4, "stat"),
    (5, "fstat"),
    (6, "lstat"),
    (7, "poll"),
    (8, "lseek"),
    (9, "mmap"),
    (10, "mprotect"),
    (11, "munmap"),
    (12, "brk"),
    (13, "rt_sigaction"),
    (14, "rt_sigprocmask"),
    (15, "rt_sigreturn"),
    (16, "ioctl"),
    (17, "pread64"),
    (18, "pwrite64"),
    (19, "readv"),
    (20, "writev"),
    (21, "access"),
    (22, "pipe"),
    (23, "select"),
    (24, "sched_yield"),
    (25, "mremap"),
    (26, "msync"),
    (27, "mincore"),
    (28, "madvise"),
    (29, "shmget"),
    (30, "shmat"),
    (31, "shmctl"),
    (32, "dup"),
    (33, "dup2"),
    (34, "pause"),
    (35, "nanosleep"),
    (36, "getitimer"),
    (37, "alarm"),
    (38, "setitimer"),
    (39, "getpid"),
    (40, "sendfile"),
    (41, "socket"),
    (42, "connect"),
    (43, "accept"),
    (44, "sendto"),
    (45, "recvfrom"),
    (46, "sendmsg"),
    (47, "recvmsg"),
    (48, "shutdown"),
    (49, "bind"),
    (50, "listen"),
    (51, "getsockname"),
    (52, "getpeername"),
    (53, "socketpair"),
    (54, "setsockopt"),
    (55, "getsockopt"),
    (56, "clone"),
    (57, "fork"),
    (58, "vfork"),
    (59, "execve"),
    (60, "exit"),
    (61, "wait4"),
    (62, "kill"),
    (63, "uname"),
    (64, "semget"),
    (65, "semop"),
    (66, "semctl"),
    (67, "shmdt"),
    (68, "msgget"),
    (69, "msgsnd"),
    (70, "msgrcv"),
    (71, "msgctl"),
    (72, "fcntl"),
    (73, "flock"),
    (74, "fsync"),
    (75, "fdatasync"),
    (76, "truncate"),
    (77, "ftruncate"),
    (78, "getdents"),
    (79, "getcwd"),
    (80, "chdir"),
    (81, "fchdir"),
    (82, "rename"),
    (83, "mkdir"),
    (84, "rmdir"),
    (85, "creat"),
    (86, "link"),
    (87, "unlink"),
    (88, "symlink"),
    (89, "readlink"),
    (90, "chmod"),
    (91, "fchmod"),
    (92, "chown"),
    (93, "fchown"),
    (94, "lchown"),
    (95, "umask"),
    (96, "gettimeofday"),
    (97, "getrlimit"),
    (98, "getrusage"),
    (99, "sysinfo"),
    (100, "times"),
    (101, "ptrace"),
    (102, "getuid"),
    (103, "syslog"),
    (104, "getgid"),
    (105, "setuid"),
    (106, "setgid"),
    (107, "geteuid"),
    (108, "getegid"),
    (109, "setpgid"),
    (110, "getppid"),
    (111, "getpgrp"),
    (112, "setsid"),
    (113, "setreuid"),
    (114, "setregid"),
    (115, "getgroups"),
    (116, "setgroups"),
    (117, "setresuid"),
    (118, "getresuid"),
    (119, "setresgid"),
    (120, "getresgid"),
    (121, "getpgid"),
    (122, "setfsuid"),
    (123, "setfsgid"),
    (124, "getsid"),
    (125, "capget"),
    (126, "capset"),
    (127, "rt_sigpending"),
    (128, "rt_sigtimedwait"),
    (130, "rt_sigsuspend"),
    (131, "sigaltstack"),
    (132, "utime"),
    (133, "mknod"),
    (137, "statfs"),
    (138, "fstatfs"),
    (140, "getpriority"),
    (141, "setpriority"),
    (145, "sched_getscheduler"),
    (146, "sched_get_priority_max"),
    (147, "sched_get_priority_min"),
    (157, "prctl"),
    (158, "arch_prctl"),
    (160, "setrlimit"),
    (161, "chroot"),
    (162, "sync"),
    (165, "mount"),
    (166, "umount2"),
    (170, "sethostname"),
    (186, "gettid"),
    (200, "tkill"),
    (201, "time"),
    (202, "futex"),
    (203, "sched_setaffinity"),
    (204, "sched_getaffinity"),
    (205, "set_thread_area"),
    (211, "get_thread_area"),
    (213, "epoll_create"),
    (217, "getdents64"),
    (218, "set_tid_address"),
    (228, "clock_gettime"),
    (229, "clock_getres"),
    (230, "clock_nanosleep"),
    (231, "exit_group"),
    (232, "epoll_wait"),
    (233, "epoll_ctl"),
    (235, "utimes"),
    (247, "waitid"),
    (257, "openat"),
    (258, "mkdirat"),
    (261, "futimesat"),
    (262, "newfstatat"),
    (263, "unlinkat"),
    (269, "faccessat"),
    (271, "ppoll"),
    (273, "set_robust_list"),
    (280, "utimensat"),
    (281, "epoll_pwait"),
    (284, "eventfd"),
    (285, "fallocate"),
    (288, "accept4"),
    (290, "eventfd2"),
    (291, "epoll_create1"),
    (292, "dup3"),
    (293, "pipe2"),
    (295, "preadv"),
    (296, "pwritev"),
    (299, "recvmmsg"),
    (302, "prlimit64"),
    (307, "sendmmsg"),
    (314, "sched_setattr"),
    (318, "getrandom"),
];

/// Looks up a syscall name by number.
pub fn syscall_name(nr: u32) -> Option<&'static str> {
    SYSCALL_TABLE
        .iter()
        .find(|(n, _)| *n == nr)
        .map(|(_, name)| *name)
}

/// Looks up a syscall number by name.
pub fn syscall_nr(name: &str) -> Option<u32> {
    SYSCALL_TABLE
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(nr, _)| *nr)
}

/// The 146 syscalls Unikraft implements (paper Figure 5, square by
/// square; the ranges below sum to exactly 146).
pub static UNIKRAFT_SUPPORTED: LazyLock<Vec<u32>> = LazyLock::new(|| {
    let mut v: Vec<u32> = Vec::with_capacity(146);
    v.extend(0..=24); // read .. sched_yield
    v.extend([26, 28]);
    v.extend([32, 33, 34, 35, 37, 38, 39, 40, 41, 42, 43, 44]);
    v.extend(45..=56); // recvfrom .. clone
    v.push(59); // execve (stubbed)
    v.extend([60, 61, 62, 63, 72, 73, 74]);
    v.extend(75..=89); // fdatasync .. readlink
    v.extend([90, 91, 92, 93, 95, 96, 97, 98, 99, 100, 102, 103, 104]);
    v.extend(105..=119); // setuid .. setresgid
    v.extend([120, 121, 124, 132, 133]);
    v.extend([140, 141]);
    v.extend([157, 158, 160, 161]);
    v.extend([165, 166, 170]);
    v.extend([201, 202, 204, 205]);
    v.extend([211, 213, 217, 218]);
    v.extend([228, 230, 231, 232, 233, 235]);
    v.extend([257, 261, 269]);
    v.extend([271, 273, 280, 281]);
    v.extend([285, 288, 291, 292, 293, 295, 296]);
    v.extend([302, 314]);
    debug_assert_eq!(v.len(), 146);
    v
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_no_duplicate_numbers() {
        let mut nrs: Vec<u32> = SYSCALL_TABLE.iter().map(|(n, _)| *n).collect();
        nrs.sort_unstable();
        let before = nrs.len();
        nrs.dedup();
        assert_eq!(nrs.len(), before);
    }

    #[test]
    fn supported_set_is_sorted_and_unique() {
        let s = &*UNIKRAFT_SUPPORTED;
        for w in s.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn supported_includes_core_io() {
        for name in ["read", "write", "close", "recvmsg", "sendmsg"] {
            let nr = syscall_nr(name).unwrap();
            assert!(UNIKRAFT_SUPPORTED.contains(&nr), "{name} missing");
        }
    }

    #[test]
    fn epoll_wait_supported_eventfd_not() {
        // The paper's Figure 5 snapshot listed epoll/eventfd as work in
        // progress (§4.1): eventfd (284) was absent while the epoll
        // family largely existed.
        assert!(UNIKRAFT_SUPPORTED.contains(&232));
        assert!(!UNIKRAFT_SUPPORTED.contains(&284));
    }

    #[test]
    fn name_lookup_roundtrips() {
        for (nr, name) in SYSCALL_TABLE {
            assert_eq!(syscall_nr(name), Some(*nr));
            assert_eq!(syscall_name(*nr), Some(*name));
        }
    }
}
