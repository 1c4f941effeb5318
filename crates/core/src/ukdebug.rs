//! `ukdebug`: log levels (§7).
//!
//! "Unikraft comes with a ukdebug micro-library that enables printing of
//! key messages at different (and configurable) levels of criticality…
//! \[and\] a trace point system also available through ukdebug's menu
//! options." The levelled messages are here: the `log_*!` macros and
//! their fixed threshold. The trace points are `uktrace`'s typed
//! tracepoints and `TraceRing`; assertions are Rust's own
//! `assert!`/`debug_assert!`.

/// Message criticality levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
// ukcheck: allow(unused-pub) -- the exported `log_*!` macros name
// `$crate::ukdebug::LogLevel`
pub enum LogLevel {
    /// Critical errors.
    Crit,
    /// Errors.
    Error,
    /// Warnings.
    Warn,
    /// Informational.
    Info,
    /// Debug chatter.
    Debug,
}

impl LogLevel {
    /// The lowercase tag printed in front of routed messages.
    pub fn tag(self) -> &'static str {
        match self {
            LogLevel::Crit => "crit",
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }
}

/// The threshold behind the `log_*!` macros: `Info`, like Unikraft's
/// `CONFIG_LIBUKDEBUG_PRINTK_INFO`.
const THRESHOLD: LogLevel = LogLevel::Info;

/// The sink behind the `log_*!` macros: drops anything below
/// `THRESHOLD`, then prints `[tag module] message` — `Warn` and above to
/// stderr, the rest to stdout. Not a hot-path facility; datapath events
/// belong in `uktrace` tracepoints, not log lines.
// ukcheck: allow(unused-pub) -- the exported `log_*!` macros expand to a call
// of it
pub fn log_at(module: &str, level: LogLevel, args: std::fmt::Arguments<'_>) {
    if level > THRESHOLD {
        return;
    }
    if level <= LogLevel::Warn {
        eprintln!("[{} {module}] {args}", level.tag());
    } else {
        println!("[{} {module}] {args}", level.tag());
    }
}

/// Logs at `Crit` through the threshold (`println!` syntax).
#[macro_export]
macro_rules! log_crit {
    ($($arg:tt)*) => {
        $crate::ukdebug::log_at(
            module_path!(),
            $crate::ukdebug::LogLevel::Crit,
            format_args!($($arg)*),
        )
    };
}

/// Logs at `Error` through the threshold.
#[macro_export]
macro_rules! log_error {
    ($($arg:tt)*) => {
        $crate::ukdebug::log_at(
            module_path!(),
            $crate::ukdebug::LogLevel::Error,
            format_args!($($arg)*),
        )
    };
}

/// Logs at `Warn` through the threshold.
#[macro_export]
macro_rules! log_warn {
    ($($arg:tt)*) => {
        $crate::ukdebug::log_at(
            module_path!(),
            $crate::ukdebug::LogLevel::Warn,
            format_args!($($arg)*),
        )
    };
}

/// Logs at `Info` through the threshold — the level bench reports
/// ride on.
#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => {
        $crate::ukdebug::log_at(
            module_path!(),
            $crate::ukdebug::LogLevel::Info,
            format_args!($($arg)*),
        )
    };
}

/// Logs at `Debug` through the threshold (off by default).
#[macro_export]
macro_rules! log_debug {
    ($($arg:tt)*) => {
        $crate::ukdebug::log_at(
            module_path!(),
            $crate::ukdebug::LogLevel::Debug,
            format_args!($($arg)*),
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_passes_and_debug_is_filtered() {
        assert!(LogLevel::Warn < THRESHOLD && LogLevel::Info == THRESHOLD);
        assert!(LogLevel::Debug > THRESHOLD);
        // The macros route through the same sink without panicking.
        crate::log_debug!("suppressed by default: {}", 42);
        crate::log_warn!("filter smoke test (expected in test output)");
    }
}
