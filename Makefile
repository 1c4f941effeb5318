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

.PHONY: verify verify-trace-off verify-fault-matrix verify-churn verify-sanitize verify-release verify-workspace lint image-size test perf perf-compare perf-pairs examples clean

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
## fault-schedule proptest (it draws a `FaultPlan`, an arbitrary drop ×
## dup × reorder × corrupt × burst schedule, and crosses it with the
## {tso, gro, sack} grid: every cell must deliver
## byte-identical TCP streams in both directions), its exhaustive slice
## (all eight cells of that grid under one composed schedule), the
## SACK conformance proptests (receiver block generation vs an RFC 2018
## reference, sender scoreboard vs a naive bitmap) and the wire-level
## recovery suite run with the observability features on (default) and
## compiled out — the recovery machinery must not depend on
## stats/tracing being present.
verify-fault-matrix:
	$(CARGO) test -q -p uknetstack --test proptests any_fault_schedule
	$(CARGO) test -q -p uknetstack --test proptests every_recovery_cell
	$(CARGO) test -q -p uknetstack --test proptests sack_
	$(CARGO) test -q -p uknetstack --test tcp_recovery
	$(CARGO) test -q -p uknetstack --no-default-features --test proptests any_fault_schedule
	$(CARGO) test -q -p uknetstack --no-default-features --test proptests every_recovery_cell
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
## line budget (`size`): 600 for each file under `stack/` and `tcp/`,
## 400 for each under `testnet/` (the in-process wire),
## no `pub` item in any library crate's `src/` that nothing outside that
## `src/` names (`unused-pub`; crates that build a binary are exempt), no
## `[dependencies]` entry of a `crates/*` manifest that nothing in its
## `src/` names (`unused-dep`), and the release profile (`build-profile`):
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
## (`verify-release`), plus example compilation and the self-tests of
## the `ukperf` benchmark (its own package, outside the workspace).
verify-workspace:
	$(CARGO) build --release --workspace --examples
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

## Alternated pairs, the way a performance claim is made (ROADMAP, house
## rules): `ukperf` built at BASE (any revision) and at this working
## tree, each exported with `git archive` in turn into one throwaway
## source directory and built into its own target directory. Both
## builds see the same source path, and neither is the checkout: the
## path goes into the binary, and an A/A run of the checkout's build
## against an export of the same source read 0.854×, 0/10 on a 2-core
## VM. Built this
## way, an A/A pair is byte-identical (the recipe says so). A dirty
## tree is exported as `git stash create` names it (tracked and staged
## files; the recipe refuses to run while an untracked file would be
## left out), a clean one as HEAD. Pair i
## runs both on each workload of W (a space-separated list; both builds
## serve every workload) for SECONDS with seed FIRST_SEED+i, the order
## flipped every pair, and reads the end-to-end metric M (default
## `ops_per_s`) off each run's result line. Prints, per workload, each
## pair, then both sides' median and quartiles (Python's
## `statistics.quantiles`, as `ukperf compare` computes them), the ratio
## of the medians and the pairs the change won — which way is a win
## comes from the metric's `better` in `BENCHMARK.json`, so
## `M=peak_rss_mib` counts lower as a win — and a verdict: `claim: met`
## when the change won at least 9 pairs in 10 and its median is further
## from the base's than the base's quartiles are apart, else `claim: not
## met`. Every run must be correct with 0 failed operations. Nothing is
## built in the checkout, so its `benchmark/Cargo.lock` is left alone.
W ?= tcp-rr
N ?= 10
M ?= ops_per_s
FIRST_SEED ?= 101
# awk: a value as the pairs print it (whole numbers past 1e5, else six
# significant digits).
PAIRS_FMT = function f(x) { return (x >= 1e5 || x <= -1e5) ? sprintf("%.0f", x) : sprintf("%.6g", x) }
perf-pairs:
	@test -n "$(BASE)" || { echo "usage: make perf-pairs BASE=<rev> [W='tcp-rr ...'] [M=ops_per_s] [N=10] [SECONDS=18] [FIRST_SEED=101]"; exit 2; }
	@set -e; \
	better=$$(awk -v m='"$(M)"' '/"name":/ { hit = index($$0, m) > 0 } hit && /"better":/ { sub(/.*"better": *"/, ""); sub(/".*/, ""); print; exit }' BENCHMARK.json); \
	case "$$better" in higher) lower=0 ;; lower) lower=1 ;; *) echo "perf-pairs: BENCHMARK.json has no metric M=$(M)" >&2; exit 2 ;; esac; \
	untracked=$$(git ls-files --others --exclude-standard); \
	test -z "$$untracked" || { echo "perf-pairs: the change's export would leave out these untracked files (git add them):" >&2; echo "$$untracked" >&2; exit 2; }; \
	change=$$(git stash create); change=$${change:-HEAD}; \
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for side in "a $(BASE)" "b $$change"; do \
		set -- $$side; rm -rf "$$dir/src"; mkdir "$$dir/src"; git archive "$$2" | tar -x -C "$$dir/src"; \
		(cd "$$dir/src" && $(CARGO) build -q --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$$dir/target-$$1"); \
	done; \
	run() { \
		"$$dir/target-$$1/release/ukperf" --workload $$3 --seed $$2 --seconds $(SECONDS) | tail -n 1 > "$$dir/last"; \
		grep -q '"correct":true,.*"failed":0,' "$$dir/last" || { echo "$$1, $$3, seed $$2, not correct:" >&2; cat "$$dir/last" >&2; exit 1; }; \
		v=$$(sed -n 's/.*"$(M)":{"value":\([^,}]*\).*/\1/p' "$$dir/last"); \
		test -n "$$v" || { echo "$$1, $$3, seed $$2: no $(M) in the result line" >&2; exit 1; }; \
		echo "$$v"; \
	}; \
	quartiles() { sort -g | awk '{ x[NR] = $$1 } \
		function q(p, m, j) { m = p * (NR + 1); j = int(m); if (j < 1) return x[1]; if (j >= NR) return x[NR]; return x[j] + (m - j) * (x[j + 1] - x[j]) } \
		END { printf "%.17g %.17g %.17g\n", q(0.25), q(0.5), q(0.75) }'; }; \
	same=; if cmp -s "$$dir/target-a/release/ukperf" "$$dir/target-b/release/ukperf"; then same=" (the two builds are byte-identical)"; fi; \
	for w in $(W); do \
		echo "ukperf $(M) ($$better is better), $$w, $(SECONDS) s runs: $(BASE) (base) vs $$change (change), both exported$$same"; \
		printf '%-6s %14s %14s %8s\n' seed base change ratio; \
		: > "$$dir/pairs"; \
		i=0; while [ $$i -lt $(N) ]; do \
			seed=$$(($(FIRST_SEED) + i)); \
			if [ $$((i % 2)) -eq 0 ]; then b=$$(run a $$seed $$w); c=$$(run b $$seed $$w); \
			else c=$$(run b $$seed $$w); b=$$(run a $$seed $$w); fi; \
			echo "$$b $$c" >> "$$dir/pairs"; \
			awk -v s=$$seed -v b=$$b -v c=$$c '$(PAIRS_FMT) BEGIN { printf "%-6d %14s %14s %8.3f\n", s, f(b), f(c), c / b }'; \
			i=$$((i + 1)); \
		done; \
		set -- $$(cut -d' ' -f1 "$$dir/pairs" | quartiles) $$(cut -d' ' -f2 "$$dir/pairs" | quartiles); \
		awk -v b1=$$1 -v bm=$$2 -v b3=$$3 -v c1=$$4 -v cm=$$5 -v c3=$$6 -v lower=$$lower '$(PAIRS_FMT) \
			{ if (lower ? $$2 < $$1 : $$2 > $$1) won++ } \
			END { d = cm > bm ? cm - bm : bm - cm; \
				printf "base    median %s [q1 %s, q3 %s], IQR %s\n", f(bm), f(b1), f(b3), f(b3 - b1); \
				printf "change  median %s [q1 %s, q3 %s], IQR %s\n", f(cm), f(c1), f(c3), f(c3 - c1); \
				printf "change/base %.3f (median), won %d/%d, |delta median| %s vs base IQR %s\n", cm / bm, won, NR, f(d), f(b3 - b1); \
				printf "claim: %s\n\n", (10 * won >= 9 * NR && d > b3 - b1) ? "met" : "not met" }' "$$dir/pairs"; \
	done

examples:
	$(CARGO) build --release --examples

clean:
	$(CARGO) clean
