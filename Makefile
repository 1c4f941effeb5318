# unikraft-rs — tier-1 verification and common developer targets.
#
# `make verify` is the one-command tier-1 check (build + tests for the
# root crate, as the ROADMAP specifies); `make verify-workspace` sweeps
# every crate in the workspace, which is what CI should run.
#
# Every `--release` build is linked as one program: `.cargo/config.toml`
# holds the release profile for this workspace and for `benchmark/`
# alike (and says why there). `make verify-release` runs the datapath's
# gates on that optimised code; `make image-size` measures what the
# profile does to the images (Fig. 8, measured beside modelled).

CARGO ?= cargo

.PHONY: verify verify-trace-off verify-fault-matrix verify-churn verify-sanitize verify-release verify-workspace lint image-size test bench perf perf-compare examples clean

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
## `stack/` and `tcp/` among them, and since PR 24 the device model
## every frame crosses twice — `uknetdev`'s `virtio.rs`, `ring.rs`,
## `backend.rs` — and the per-frame codecs `eth.rs`, `ipv4.rs`,
## `udp.rs`, `icmp.rs`: under `panic = "abort"` a datapath panic kills
## the image), SAFETY-commented unsafe,
## atomic-ordering policy, no shared `ukstats::Counter` in a
## single-writer owner (every file under `stack/` is one), the non-test
## line budget (`size`): 800 for each file under `stack/` and `tcp/`,
## no `pub` item under either that nothing outside `uknetstack/src`
## names (`unused-pub`), and the release profile (`build-profile`):
## `.cargo/config.toml` exists, its `[profile.release]` is exactly the
## keys `ukcheck`'s manifest lists, and no `Cargo.toml` of the root,
## `crates/*` or `third_party/*` carries a `[profile.release…]` table —
## a moved or shadowed profile costs ≈ 20 % on `tcp-rr` without a word.
## Exits non-zero on any unescaped violation;
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

## The optimised image is the one under test: the suites above run the
## test profile and `benchmark check` runs opt-level 2, so without this
## no test executes the LTO-inlined code the benchmark measures. The
## datapath's gates — zero allocations per frame, loss recovery,
## connection lifecycle, accounting, the device model's and the stack's
## unit tests, the apps' zero-alloc request path — built `--release`
## (fat LTO; cargo keeps `panic = "unwind"` for test targets whatever
## the profile says, so a failing assertion is still reported by the
## harness rather than aborting it — and `debug_assert!`s are off,
## which is what `udp.rs`'s `Csum::Gso` test needs to see).
verify-release:
	$(CARGO) test -q --release --offline -p uknetdev --lib
	$(CARGO) test -q --release --offline -p uknetstack --lib --test zero_alloc --test tcp_recovery --test tcp_lifecycle --test accounting
	$(CARGO) test -q --release --offline -p ukapps --test zero_alloc

## Fig. 8, measured beside modelled: two example images and `ukperf`
## built twice into a throwaway target directory — under the profile,
## and with cargo's own overrides putting its defaults back — then
## stripped and sized. `crates/ukbuild/src/image.rs` quotes the table
## next to `LTO_FACTOR`. (Building `benchmark/` rewrites its stale
## `Cargo.lock`: `git checkout benchmark/Cargo.lock` afterwards.)
image-size:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	build() { \
		out="$$dir/$$1"; shift; \
		env "$$@" $(CARGO) build -q --release --offline --target-dir "$$out" --example webserver --example event_server; \
		env "$$@" $(CARGO) build -q --release --offline --target-dir "$$out" --manifest-path benchmark/Cargo.toml; \
		for b in examples/webserver examples/event_server ukperf; do strip "$$out/release/$$b"; done; \
	}; \
	build lto; \
	build plain CARGO_PROFILE_RELEASE_LTO=off CARGO_PROFILE_RELEASE_CODEGEN_UNITS=16 CARGO_PROFILE_RELEASE_PANIC=unwind; \
	printf '%-24s %12s %12s %7s\n' image 'defaults (B)' 'profile (B)' ratio; \
	for b in examples/webserver examples/event_server ukperf; do \
		p=$$(stat -c %s "$$dir/plain/release/$$b"); l=$$(stat -c %s "$$dir/lto/release/$$b"); \
		printf '%-24s %12d %12d %7s\n' "$$b" "$$p" "$$l" "$$(awk "BEGIN { printf \"%.2f\", $$l / $$p }")"; \
	done

## The full sweep: every workspace crate's unit, integration and prop
## tests (the `zero_alloc` guard among them: 0 allocations per frame on
## the datapath, over the config grid), the static invariant lint, the
## sanitized pool suites, the datapath's gates on the optimised build
## (`verify-release`), plus bench/example compilation and the
## self-tests of the `ukperf` benchmark (its own package, outside the
## workspace).
verify-workspace:
	$(CARGO) build --release --workspace --benches --examples
	$(CARGO) test -q --workspace
	$(MAKE) lint
	$(MAKE) verify-sanitize
	$(MAKE) verify-release
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
