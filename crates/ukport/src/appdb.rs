//! Syscall requirement database for the top-30 Debian server apps.
//!
//! The paper selects "the 30 most popular server applications" from the
//! Debian popularity contest and derives their syscall footprints via
//! static + dynamic (strace) analysis. We encode those footprints as
//! compositions of behavioural families — every server needs the base
//! process/memory set; network servers add sockets and event APIs;
//! forking servers add process management; databases add file and
//! SysV-IPC calls — matching the families visible in Figure 5.

use std::sync::LazyLock;

/// Base set every dynamically linked server binary touches.
static BASE: &[u32] = &[
    0,   // read
    1,   // write
    2,   // open
    3,   // close
    4,   // stat
    5,   // fstat
    8,   // lseek
    9,   // mmap
    10,  // mprotect
    11,  // munmap
    12,  // brk
    13,  // rt_sigaction
    14,  // rt_sigprocmask
    16,  // ioctl
    21,  // access
    32,  // dup
    33,  // dup2
    39,  // getpid
    60,  // exit
    63,  // uname
    72,  // fcntl
    79,  // getcwd
    89,  // readlink
    96,  // gettimeofday
    102, // getuid
    104, // getgid
    107, // geteuid
    108, // getegid
    158, // arch_prctl
    218, // set_tid_address
    228, // clock_gettime
    231, // exit_group
    273, // set_robust_list
    302, // prlimit64
];

/// Socket servers.
static NET: &[u32] = &[
    7,   // poll
    23,  // select
    41,  // socket
    42,  // connect
    43,  // accept
    44,  // sendto
    45,  // recvfrom
    46,  // sendmsg
    47,  // recvmsg
    48,  // shutdown
    49,  // bind
    50,  // listen
    51,  // getsockname
    54,  // setsockopt
    55,  // getsockopt
    288, // accept4
];

/// Event-loop APIs (partially WIP in Unikraft: eventfd is missing).
static EVENT: &[u32] = &[
    213, // epoll_create
    232, // epoll_wait
    233, // epoll_ctl
    281, // epoll_pwait
    284, // eventfd
    290, // eventfd2
    291, // epoll_create1
    293, // pipe2
];

/// Multi-process servers (fork/exec model).
static PROC: &[u32] = &[
    56,  // clone
    57,  // fork
    59,  // execve
    61,  // wait4
    62,  // kill
    109, // setpgid
    110, // getppid
    112, // setsid
    95,  // umask
    105, // setuid
    106, // setgid
    116, // setgroups
];

/// Heavy file I/O (databases, mail spools).
static FILES: &[u32] = &[
    17,  // pread64
    18,  // pwrite64
    19,  // readv
    20,  // writev
    40,  // sendfile
    74,  // fsync
    75,  // fdatasync
    77,  // ftruncate
    78,  // getdents
    80,  // chdir
    82,  // rename
    83,  // mkdir
    84,  // rmdir
    87,  // unlink
    90,  // chmod
    92,  // chown
    137, // statfs
    217, // getdents64
    257, // openat
];

/// Threading.
static THREADS: &[u32] = &[
    24,  // sched_yield
    28,  // madvise
    35,  // nanosleep
    186, // gettid
    202, // futex
    203, // sched_setaffinity
    204, // sched_getaffinity
    230, // clock_nanosleep
];

/// SysV IPC (big databases).
static SYSV_IPC: &[u32] = &[
    29, // shmget
    30, // shmat
    31, // shmctl
    64, // semget
    65, // semop
    66, // semctl
    67, // shmdt
];

/// Modern misc calls that trip up port efforts.
static MODERN: &[u32] = &[
    262, // newfstatat
    263, // unlinkat
    318, // getrandom
    131, // sigaltstack
    99,  // sysinfo
    97,  // getrlimit
    98,  // getrusage
];

/// An application and the syscalls it needs to run.
#[derive(Debug, Clone)]
// ukcheck: allow(unused-pub) -- the rows of the public `TOP30_APPS`, and what
// `coverage` takes
pub struct AppRequirements {
    /// Debian package name.
    pub name: &'static str,
    /// Required syscall numbers (sorted, deduplicated).
    pub syscalls: Vec<u32>,
}

fn app(name: &'static str, families: &[&[u32]], extra: &[u32]) -> AppRequirements {
    let mut syscalls: Vec<u32> = families.iter().flat_map(|f| f.iter().copied()).collect();
    syscalls.extend_from_slice(extra);
    syscalls.sort_unstable();
    syscalls.dedup();
    AppRequirements { name, syscalls }
}

/// The 30 applications of Figures 5 and 7, in the paper's order.
pub static TOP30_APPS: LazyLock<Vec<AppRequirements>> = LazyLock::new(|| {
    vec![
        app("apache", &[BASE, NET, EVENT, PROC, FILES, THREADS], &[]),
        app("avahi", &[BASE, NET, PROC], &[22, 34]),
        app("bind9", &[BASE, NET, EVENT, FILES, THREADS], &[318]),
        app("dovecot", &[BASE, NET, PROC, FILES], &[53, 161]),
        app("exim", &[BASE, NET, PROC, FILES], &[86, 88]),
        app("firebird", &[BASE, NET, FILES, THREADS, SYSV_IPC], &[]),
        app("groonga", &[BASE, NET, EVENT, FILES, THREADS], &[]),
        app("h2o", &[BASE, NET, EVENT, THREADS], &[318, 293]),
        app("influxdb", &[BASE, NET, EVENT, FILES, THREADS, MODERN], &[]),
        app("knot", &[BASE, NET, EVENT, THREADS], &[299, 307]),
        app("lighttpd", &[BASE, NET, EVENT, FILES], &[]),
        app("mariadb", &[BASE, NET, FILES, THREADS, SYSV_IPC, MODERN], &[]),
        app("memcached", &[BASE, NET, EVENT, THREADS], &[]),
        app("mongodb", &[BASE, NET, EVENT, FILES, THREADS, MODERN], &[25]),
        app("mongoose", &[BASE, NET], &[]),
        app("mongrel", &[BASE, NET, PROC], &[]),
        app("mutt", &[BASE, FILES], &[76, 91]),
        app("mysql", &[BASE, NET, FILES, THREADS, SYSV_IPC, MODERN], &[]),
        app("nghttp", &[BASE, NET, EVENT, THREADS], &[]),
        app("nginx", &[BASE, NET, EVENT, FILES], &[53, 40]),
        app("nullmailer", &[BASE, NET, FILES], &[]),
        app("openlitespeedweb", &[BASE, NET, EVENT, PROC, FILES, THREADS], &[]),
        app("opensmtpd", &[BASE, NET, PROC, FILES], &[53]),
        app("postgresql", &[BASE, NET, PROC, FILES, SYSV_IPC, MODERN], &[23]),
        app("redis", &[BASE, NET, EVENT, THREADS], &[36, 38]),
        app("sqlite3", &[BASE, FILES], &[]),
        app("tntnet", &[BASE, NET, EVENT, THREADS], &[]),
        app("webfs", &[BASE, NET, FILES], &[40]),
        app("weborf", &[BASE, NET, FILES], &[40]),
        app("whitedb", &[BASE, FILES, SYSV_IPC], &[]),
    ]
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_thirty_apps() {
        assert_eq!(TOP30_APPS.len(), 30);
    }

    #[test]
    fn requirement_sets_are_sorted_unique() {
        for a in TOP30_APPS.iter() {
            for w in a.syscalls.windows(2) {
                assert!(w[0] < w[1], "{}: {} !< {}", a.name, w[0], w[1]);
            }
        }
    }

    #[test]
    fn every_app_needs_read_and_write() {
        for a in TOP30_APPS.iter() {
            assert!(a.syscalls.contains(&0), "{} missing read", a.name);
            assert!(a.syscalls.contains(&1), "{} missing write", a.name);
        }
    }

    #[test]
    fn databases_need_sysv_ipc() {
        let pg = TOP30_APPS.iter().find(|a| a.name == "postgresql").unwrap();
        assert!(pg.syscalls.contains(&29)); // shmget
        assert!(pg.syscalls.contains(&64)); // semget
        let ngx = TOP30_APPS.iter().find(|a| a.name == "nginx").unwrap();
        assert!(!ngx.syscalls.contains(&64));
    }

    #[test]
    fn footprints_are_realistic_sizes() {
        for a in TOP30_APPS.iter() {
            assert!(
                (30..140).contains(&a.syscalls.len()),
                "{}: {} syscalls",
                a.name,
                a.syscalls.len()
            );
        }
    }
}
