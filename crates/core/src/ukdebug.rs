//! `ukdebug`: log levels (§7).
//!
//! "Unikraft comes with a ukdebug micro-library that enables printing of
//! key messages at different (and configurable) levels of criticality…
//! \[and\] a trace point system also available through ukdebug's menu
//! options." The levelled messages are here: the `log_*!` macros and
//! their process-wide, per-module filter. The trace points are
//! `uktrace`'s typed tracepoints and `TraceRing`; assertions are Rust's
//! own `assert!`/`debug_assert!`.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Mutex;

/// Message criticality levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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
    fn from_u8(v: u8) -> LogLevel {
        match v {
            0 => LogLevel::Crit,
            1 => LogLevel::Error,
            2 => LogLevel::Warn,
            3 => LogLevel::Info,
            _ => LogLevel::Debug,
        }
    }

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

/// The process-wide threshold behind the `log_*!` macros. `Info` by
/// default, like Unikraft's `CONFIG_LIBUKDEBUG_PRINTK_INFO`.
static GLOBAL_LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Info as u8);
/// Per-module-prefix overrides (longest matching prefix wins).
static MODULE_LEVELS: Mutex<Vec<(String, LogLevel)>> = Mutex::new(Vec::new());
/// Fast-path flag: skip the override lock entirely when none are set.
static HAS_OVERRIDES: AtomicBool = AtomicBool::new(false);

/// Sets the process-wide threshold for the `log_*!` macros. Benches
/// drop this to `Warn` in machine-readable (`--json`) mode so debug
/// chatter cannot pollute the output being parsed.
pub fn set_global_level(level: LogLevel) {
    GLOBAL_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Overrides the threshold for every module whose `module_path!()`
/// starts with `prefix` — e.g. `set_module_level("uknetstack", Debug)`
/// turns on one subsystem's chatter without drowning in everyone
/// else's. The longest matching prefix wins; setting the same prefix
/// twice replaces the earlier entry.
pub fn set_module_level(prefix: &str, level: LogLevel) {
    let mut overrides = MODULE_LEVELS.lock().expect("ukdebug filter poisoned");
    if let Some(e) = overrides.iter_mut().find(|(p, _)| p == prefix) {
        e.1 = level;
    } else {
        overrides.push((prefix.to_string(), level));
    }
    HAS_OVERRIDES.store(true, Ordering::Relaxed);
}

/// Drops every per-module override, restoring the global threshold.
pub fn clear_module_levels() {
    MODULE_LEVELS.lock().expect("ukdebug filter poisoned").clear();
    HAS_OVERRIDES.store(false, Ordering::Relaxed);
}

/// The threshold in effect for `module`.
pub fn threshold_for(module: &str) -> LogLevel {
    if HAS_OVERRIDES.load(Ordering::Relaxed) {
        let overrides = MODULE_LEVELS.lock().expect("ukdebug filter poisoned");
        if let Some((_, level)) = overrides
            .iter()
            .filter(|(p, _)| module.starts_with(p.as_str()))
            .max_by_key(|(p, _)| p.len())
        {
            return *level;
        }
    }
    LogLevel::from_u8(GLOBAL_LEVEL.load(Ordering::Relaxed))
}

/// Whether a message at `level` from `module` passes the filter.
pub fn log_enabled(module: &str, level: LogLevel) -> bool {
    level <= threshold_for(module)
}

/// The sink behind the `log_*!` macros: filters by module and level,
/// then prints `[tag module] message` — `Warn` and above to stderr,
/// the rest to stdout. Not a hot-path facility; datapath events belong
/// in `uktrace` tracepoints, not log lines.
pub fn log_at(module: &str, level: LogLevel, args: std::fmt::Arguments<'_>) {
    if !log_enabled(module, level) {
        return;
    }
    if level <= LogLevel::Warn {
        eprintln!("[{} {module}] {args}", level.tag());
    } else {
        println!("[{} {module}] {args}", level.tag());
    }
}

/// Logs at `Crit` through the global filter (`println!` syntax).
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

/// Logs at `Error` through the global filter.
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

/// Logs at `Warn` through the global filter.
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

/// Logs at `Info` through the global filter — the level bench reports
/// ride on, suppressed wholesale by `--json` runs.
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

/// Logs at `Debug` through the global filter (off by default).
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
    fn module_filter_longest_prefix_wins() {
        // Global state: exercise the whole scenario in one test and
        // restore the defaults at the end.
        assert!(log_enabled("ukbench::netpath", LogLevel::Info));
        assert!(!log_enabled("ukbench::netpath", LogLevel::Debug));

        set_module_level("ukbench", LogLevel::Warn);
        set_module_level("ukbench::netpath", LogLevel::Debug);
        assert!(
            !log_enabled("ukbench::figures", LogLevel::Info),
            "short prefix silences siblings"
        );
        assert!(
            log_enabled("ukbench::netpath", LogLevel::Debug),
            "longer prefix wins for its subtree"
        );
        assert!(
            log_enabled("uknetstack::stack", LogLevel::Info),
            "unmatched modules keep the global threshold"
        );

        set_global_level(LogLevel::Error);
        assert!(!log_enabled("uknetstack::stack", LogLevel::Warn));
        assert!(log_enabled("uknetstack::stack", LogLevel::Error));

        clear_module_levels();
        set_global_level(LogLevel::Info);
        assert!(log_enabled("ukbench::figures", LogLevel::Info));
        // The macros route through the same sink without panicking.
        crate::log_debug!("suppressed by default: {}", 42);
        crate::log_warn!("filter smoke test (expected in test output)");
    }
}
