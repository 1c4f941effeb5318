# unikraft-rs — tier-1 verification and common developer targets.
#
# `make verify` is the one-command tier-1 check (build + tests for the
# root crate, as the ROADMAP specifies); `make verify-workspace` sweeps
# every crate in the workspace, which is what CI should run.

CARGO ?= cargo

.PHONY: verify verify-trace-off verify-fault-matrix verify-churn verify-sanitize verify-workspace lint test bench perf perf-compare examples clean

## Tier-1: release build + root-crate tests (ROADMAP's check).
verify:
	$(CARGO) build --release
	$(CARGO) test -q

## The compile-out guarantee: build and test the datapath with
## tracing (and the uktrace/ukstats default features) off. The
## `trace_noop` cfg test asserts the no-op ring is zero-sized and that
## the echo scenario records nothing — i.e. the tracepoints added no
## code to `pump` and friends.
verify-trace-off:
	$(CARGO) test -q -p uknetstack --no-default-features
	$(CARGO) test -q -p ukstats --no-default-features
	$(CARGO) test -q -p uktrace --no-default-features

## The loss-tolerance property in both feature modes: the
## fault-schedule proptest (arbitrary drop × dup × reorder × corrupt ×
## burst schedules crossed with the {sack, rack, pacing} recovery
## switches must deliver byte-identical TCP streams in both
## directions), the SACK conformance proptests (receiver block
## generation vs an RFC 2018 reference, sender scoreboard vs a naive
## bitmap) and the wire-level recovery suite run with the
## observability features on (default) and compiled out — the recovery
## machinery must not depend on stats/tracing being present.
verify-fault-matrix:
	$(CARGO) test -q -p uknetstack --test proptests any_fault_schedule
	$(CARGO) test -q -p uknetstack --test proptests sack_
	$(CARGO) test -q -p uknetstack --test tcp_recovery
	$(CARGO) test -q -p uknetstack --no-default-features --test proptests any_fault_schedule
	$(CARGO) test -q -p uknetstack --no-default-features --test proptests sack_
	$(CARGO) test -q -p uknetstack --no-default-features --test tcp_recovery

## The connection-lifecycle properties in both feature modes: the
## TCB's own timeouts on raw TCB pairs (`tcp::tests`: handshake,
## FIN_WAIT_2, 2MSL, keepalive — no stack), the wire-level lifecycle
## suite (SYN-flood survival and reclamation, handshake-timeout
## reaping, TIME_WAIT 2MSL + port recycling, keepalive dead-peer
## teardown, RST discipline, churn leak-checks, one lazily re-armed
## wheel entry per connection) and the timer-wheel-vs-reference
## proptest run with the observability features on (default) and
## compiled out — the control plane must not depend on stats/tracing
## being present.
verify-churn:
	$(CARGO) test -q -p uknetstack --lib tcp::tests
	$(CARGO) test -q -p uknetstack --test tcp_lifecycle
	$(CARGO) test -q -p uknetstack --test proptests timer_wheel_matches
	$(CARGO) test -q -p uknetstack --no-default-features --lib tcp::tests
	$(CARGO) test -q -p uknetstack --no-default-features --test tcp_lifecycle
	$(CARGO) test -q -p uknetstack --no-default-features --test proptests timer_wheel_matches

## Repo-native invariant linter (crates/ukcheck): no-alloc hot path,
## panic-free datapath (`uknetstack`'s `arp.rs` and every file under its
## `stack/` and `tcp/` among them), SAFETY-commented unsafe,
## atomic-ordering policy, no shared `ukstats::Counter` in a
## single-writer owner (every file under `stack/` is one), the non-test
## line budget (`size`): 800 for each file under `stack/` and `tcp/`,
## and no `pub` item under either that nothing outside `uknetstack/src`
## names (`unused-pub`). Exits non-zero on any unescaped violation;
## every escape must carry a written justification (see
## crates/ukcheck/README.md).
lint:
	$(CARGO) run -q --release -p ukcheck -- --root $(CURDIR)

## The dynamic counterpart of `lint`: every `uknetdev` and `uknetstack`
## test target with the `netbuf-sanitizer` feature on, so double-recycle,
## cross-pool give-back, use-after-recycle and end-of-test leaks panic
## at the faulting site instead of surfacing as downstream corruption —
## anywhere a test drives the datapath, not in a hand-picked few. The
## zero_alloc guard runs sanitized too — poisoning is a byte fill and
## provenance is `&'static Location`, so even the sanitized pool must
## circulate without touching the heap.
verify-sanitize:
	$(CARGO) test -q -p uknetdev --features netbuf-sanitizer
	$(CARGO) test -q -p uknetstack --features netbuf-sanitizer

## The full sweep: every workspace crate's unit, integration and prop
## tests (the `zero_alloc` guard among them: 0 allocations per frame on
## the datapath, over the config grid), the static invariant lint, the
## sanitized pool suites, plus bench/example compilation and the
## self-tests of the `ukperf` benchmark (its own package, outside the
## workspace).
verify-workspace:
	$(CARGO) build --release --workspace --benches --examples
	$(CARGO) test -q --workspace
	$(MAKE) lint
	$(MAKE) verify-sanitize
	$(MAKE) verify-trace-off
	$(MAKE) verify-fault-matrix
	$(MAKE) verify-churn
	$(MAKE) -C benchmark check

test:
	$(CARGO) test -q --workspace

## The criterion benches `ukperf` has no probe for yet: boot, fs, sqldb,
## syscall, udpkv (smoke harness — prints ns/iter).
bench:
	$(CARGO) bench

## `ukperf` (benchmark/, see its README): the end-to-end + per-layer
## benchmark every performance claim is made in. `perf` is one run of
## one workload (W=tcp-rr SEED=1 SECONDS=18; `make -C benchmark trace`
## for the per-layer form). `perf-compare` measures this build as a
## set of RUNS runs per workload and compares it with BASE, a set
## measured earlier on the tree to compare against (`ukperf set` there).
## There is no default: the sets committed under benchmark/baseline/
## are the PR 12 tree, which every later tree beats by more than any
## regression worth catching.
perf:
	$(MAKE) -C benchmark run

RUNS ?= 5
SECONDS ?= 18
perf-compare:
	@test -n "$(BASE)" || { echo "usage: make perf-compare BASE=<set.json>  (measure it on the base tree: ukperf set --out <set.json> --runs $(RUNS) --seconds $(SECONDS))"; exit 2; }
	$(CARGO) run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
		set --out $(CURDIR)/benchmark/out/set-head.json --runs $(RUNS) --seconds $(SECONDS)
	$(CARGO) run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
		compare $(abspath $(BASE)) $(CURDIR)/benchmark/out/set-head.json

examples:
	$(CARGO) build --release --examples

clean:
	$(CARGO) clean
