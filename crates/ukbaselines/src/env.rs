//! Execution environments and their cost structure.

use crate::data;

/// The applications the comparison figures use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// Hello world.
    Hello,
    /// nginx-style web server.
    Nginx,
    /// Redis-style key-value server.
    Redis,
    /// SQLite-style embedded database.
    Sqlite,
}

/// Workloads with distinct per-request cost structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Redis GET (pipelined).
    RedisGet,
    /// Redis SET (pipelined).
    RedisSet,
    /// nginx static-page request.
    NginxRequest,
}

/// Every environment the paper's comparison figures include.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecEnv {
    /// Unikraft on QEMU/KVM (our system, measured not modelled).
    UnikraftKvm,
    /// Native Linux process.
    LinuxNative,
    /// Linux guest on QEMU/KVM.
    LinuxKvm,
    /// Linux guest on Firecracker.
    LinuxFirecracker,
    /// Docker container on the native kernel.
    DockerNative,
    /// Lupine (KML-specialized Linux) on QEMU/KVM.
    LupineKvm,
    /// Lupine on Firecracker.
    LupineFirecracker,
    /// OSv on QEMU/KVM.
    OsvKvm,
    /// Rumprun on QEMU/KVM.
    RumpKvm,
    /// HermiTux on uHyve.
    HermituxUhyve,
    /// MirageOS on Solo5.
    MirageSolo5,
}

impl ExecEnv {
    /// All environments.
    pub fn all() -> [ExecEnv; 11] {
        [
            ExecEnv::UnikraftKvm,
            ExecEnv::LinuxNative,
            ExecEnv::LinuxKvm,
            ExecEnv::LinuxFirecracker,
            ExecEnv::DockerNative,
            ExecEnv::LupineKvm,
            ExecEnv::LupineFirecracker,
            ExecEnv::OsvKvm,
            ExecEnv::RumpKvm,
            ExecEnv::HermituxUhyve,
            ExecEnv::MirageSolo5,
        ]
    }

    /// Display name matching the figures.
    pub fn name(self) -> &'static str {
        match self {
            ExecEnv::UnikraftKvm => "Unikraft KVM",
            ExecEnv::LinuxNative => "Linux Native",
            ExecEnv::LinuxKvm => "Linux KVM",
            ExecEnv::LinuxFirecracker => "Linux FC",
            ExecEnv::DockerNative => "Docker Native",
            ExecEnv::LupineKvm => "Lupine KVM",
            ExecEnv::LupineFirecracker => "Lupine FC",
            ExecEnv::OsvKvm => "OSv KVM",
            ExecEnv::RumpKvm => "Rump KVM",
            ExecEnv::HermituxUhyve => "Hermitux uHyve",
            ExecEnv::MirageSolo5 => "Mirage Solo5",
        }
    }
}

/// The full model for one environment.
#[derive(Debug, Clone, Copy)]
pub struct EnvModel {
    /// Which environment.
    pub env: ExecEnv,
}

impl EnvModel {
    /// Creates the model for `env`.
    pub fn new(env: ExecEnv) -> Self {
        EnvModel { env }
    }

    /// Residual per-request overhead of this environment relative to
    /// Unikraft, in nanoseconds, for a workload.
    ///
    /// Derived from the paper's published throughput (Figures 12/13):
    /// `1/thr(env) − 1/thr(unikraft)`. This residual captures everything
    /// our mechanical models do not (guest kernel bloat, scheduler
    /// mismatch, allocator differences). The Unikraft row is always 0 —
    /// its cost is genuinely measured from our implementation.
    pub fn request_overhead_ns(&self, w: Workload) -> Option<f64> {
        let (this, uk) = match w {
            Workload::RedisGet => (
                data::redis_throughput(self.env)?.0,
                data::redis_throughput(ExecEnv::UnikraftKvm)?.0,
            ),
            Workload::RedisSet => (
                data::redis_throughput(self.env)?.1,
                data::redis_throughput(ExecEnv::UnikraftKvm)?.1,
            ),
            Workload::NginxRequest => (
                data::nginx_throughput(self.env)?,
                data::nginx_throughput(ExecEnv::UnikraftKvm)?,
            ),
        };
        Some((1e9 / this - 1e9 / uk).max(0.0))
    }

    /// Image size for an app (Figure 9).
    pub fn image_size_mb(&self, app: AppId) -> Option<f64> {
        data::image_size_mb(self.env, app)
    }

    /// Minimum memory for an app (Figure 11).
    pub fn min_memory_mb(&self, app: AppId) -> Option<u32> {
        data::min_memory_mb(self.env, app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unikraft_overhead_is_zero() {
        let m = EnvModel::new(ExecEnv::UnikraftKvm);
        for w in [Workload::RedisGet, Workload::RedisSet, Workload::NginxRequest] {
            assert_eq!(m.request_overhead_ns(w), Some(0.0));
        }
    }

    #[test]
    fn slower_envs_have_positive_overhead() {
        for env in ExecEnv::all() {
            if env == ExecEnv::UnikraftKvm {
                continue;
            }
            let m = EnvModel::new(env);
            if let Some(o) = m.request_overhead_ns(Workload::RedisGet) {
                assert!(o > 0.0, "{env:?}");
            }
        }
    }

    #[test]
    fn hermitux_cannot_run_nginx() {
        let m = EnvModel::new(ExecEnv::HermituxUhyve);
        assert!(m.request_overhead_ns(Workload::NginxRequest).is_none());
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            ExecEnv::all().iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), ExecEnv::all().len());
    }
}
