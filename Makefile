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

.PHONY: verify verify-trace-off verify-fault-matrix verify-churn verify-sanitize verify-release verify-hot-text verify-workspace lint image-size hot-text test perf perf-compare perf-pairs examples clean

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
## teardown, RST discipline, churn leak-checks, one timer queue entry
## per connection at its exact deadline), the connection table's
## reference proptest (slab, flow table and timer queue) and the
## `TimerWheel`-vs-reference proptest run with the observability
## features on (default) and compiled out — the control plane must not
## depend on stats/tracing being present.
verify-churn:
	$(CARGO) test -q -p uknetstack --lib tcp::tests
	$(CARGO) test -q -p uknetstack --lib stack::conns
	$(CARGO) test -q -p uknetstack --test tcp_lifecycle
	$(CARGO) test -q -p uknetstack --test proptests timer_wheel_matches
	$(CARGO) test -q -p uknetstack --no-default-features --lib tcp::tests
	$(CARGO) test -q -p uknetstack --no-default-features --lib stack::conns
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
## a moved or shadowed profile costs ≈ 20 % on `tcp-rr` without a word;
## the same file's `[target.x86_64-unknown-linux-gnu]` holds the one
## `rustflags` line (`+crt-static`: every binary carries its libc), and
## no other table holds one.
## Exits non-zero on any unescaped violation;
## every escape must carry a written justification (see
## crates/ukcheck/README.md). Then rustdoc and clippy, warnings denied:
## a doc link to a private or missing item, or any clippy warning of
## the workspace's crates and their tests, fails the target (a lint
## that does not apply carries `allow(..., reason = "...")` on the item).
lint:
	$(CARGO) run -q --release -p ukcheck -- --root $(CURDIR)
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc -q --workspace --no-deps --offline
	$(CARGO) clippy -q --workspace --all-targets --offline -- -D warnings

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
## built three times into a throwaway target directory — with cargo's
## defaults (its own overrides put back no LTO, 16 codegen units and
## unwinding; an empty `RUSTFLAGS` drops the config's `+crt-static`, so
## the libc is the shared one), under the profile with the shared libc,
## and as this tree builds them (the profile, the static libc) — then
## stripped and sized. Beside each ELF stands its run-time closure:
## the ELF plus every object the loader maps for it — its `PT_INTERP`
## and its `DT_NEEDED` libraries, resolved through `ldconfig`'s cache
## and followed to their own — or none for a static image. That is what
## the program needs on disk to run; `ratio` is each closure over the
## cargo-defaults one. `relocs` is the bytes of its dynamic relocation
## tables (`.rela.dyn` + `.relr.dyn`) and `align` its `PT_LOAD`s'
## `p_align`: the empty `RUSTFLAGS` of the first two builds also drops
## the config's link flags (64 KiB segments, RELR), so they show
## what those flags change. Every build is laid out by `hot.ld` (see
## `hot-text` below): `.text.hot` is the code the workloads run, `.text`
## the rest; `.rodata.hot` the read-only sections they read, `.rodata`
## the rest. Last, `hot-text size` splits both sections of the images
## as this tree builds them — before `strip`, it reads `.symtab` — by
## where the code comes from: our crates, `std`, `core`/`alloc`, glibc.
## `crates/ukbuild/src/image.rs` quotes the tables next to
## `LTO_FACTOR`. (Building `benchmark/`
## rewrites its stale `Cargo.lock`: `git checkout benchmark/Cargo.lock`
## afterwards.)
IMAGES = examples/webserver examples/event_server ukperf
image-size:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	build() { \
		out="$$dir/$$1"; shift; \
		env "$$@" $(CARGO) build -q --release --offline --target-dir "$$out" --example webserver --example event_server; \
		env "$$@" $(CARGO) build -q --release --offline --target-dir "$$out" --manifest-path benchmark/Cargo.toml; \
		mkdir -p "$$out/sym"; \
		for b in $(IMAGES); do cp "$$out/release/$$b" "$$out/sym/"; strip "$$out/release/$$b"; done; \
	}; \
	build defaults RUSTFLAGS= CARGO_PROFILE_RELEASE_LTO=off CARGO_PROFILE_RELEASE_CODEGEN_UNITS=16 CARGO_PROFILE_RELEASE_PANIC=unwind; \
	build shared RUSTFLAGS=; \
	build static; \
	needs() { \
		readelf -lW "$$1" | sed -n 's/.*interpreter: \(.*\)]$$/\1/p'; \
		readelf -dW "$$1" | sed -n 's/.*(NEEDED).*\[\(.*\)\]$$/\1/p'; \
	}; \
	closure() { \
		bytes=$$(stat -c %s "$$1"); objs=; todo=$$(needs "$$1"); \
		while [ -n "$$todo" ]; do \
			set -- $$todo; n=$$1; shift; todo="$$*"; \
			case "$$n" in /*) p=$$n ;; *) p=$$(ldconfig -p | awk -v n="$$n" '$$1 == n && /x86-64/ { print $$NF; exit }') ;; esac; \
			test -n "$$p" || { echo "image-size: $$n: not in ldconfig's cache" >&2; exit 1; }; \
			p=$$(readlink -f "$$p"); \
			case " $$objs " in *" $$p "*) continue ;; esac; \
			objs="$$objs $$p"; bytes=$$((bytes + $$(stat -c %s "$$p"))); todo="$$todo $$(needs "$$p")"; \
		done; \
		echo "$$bytes"; for o in $$objs; do basename "$$o"; done; \
	}; \
	secsize() { h=$$(readelf -SW "$$1" | awk -v n="$$2" '{ for (i = 1; i < NF; i++) if ($$i == n) { print $$(i + 4); exit } }'); echo $$((0x$${h:-0})); }; \
	align() { readelf -lW "$$1" | awk '$$1 == "LOAD" { print $$NF }' | sort -u | paste -sd/; }; \
	printf '%-24s %-22s %10s %10s %10s %11s %10s %8s %8s %12s %6s  %s\n' image build 'ELF (B)' '.text.hot' '.text' '.rodata.hot' '.rodata' 'relocs' 'align' 'closure (B)' ratio 'objects the loader maps'; \
	for b in $(IMAGES); do \
		base=; \
		for v in "defaults:cargo defaults, shared" "shared:profile, shared libc" "static:profile, static libc"; do \
			elf="$$dir/$${v%%:*}/release/$$b"; set -- $$(closure "$$elf"); c=$$1; shift; base=$${base:-$$c}; \
			printf '%-24s %-22s %10d %10d %10d %11d %10d %8d %8s %12d %6s  %s\n' "$$b" "$${v#*:}" "$$(stat -c %s "$$elf")" \
				"$$(secsize "$$elf" .text.hot)" "$$(secsize "$$elf" .text)" \
				"$$(secsize "$$elf" .rodata.hot)" "$$(secsize "$$elf" .rodata)" \
				"$$(( $$(secsize "$$elf" .rela.dyn) + $$(secsize "$$elf" .relr.dyn) ))" "$$(align "$$elf")" "$$c" \
				"$$(awk "BEGIN { printf \"%.2f\", $$c / $$base }")" "$${*:-(none)}"; \
		done; \
	done; \
	echo; echo "code of the images as this tree builds them (unstripped), by origin, in bytes of function symbols:"; \
	$(HOT_TEXT) size $(HOT_LIBS) $(foreach b,$(IMAGES),"$$dir/static/sym/$(notdir $(b))")

## `.text.hot` and `.rodata.hot`: every image that links `ukplat` is
## laid out by `crates/ukplat/link/hot.ld` (its `build.rs` passes the
## fragment to the linker), which packs the functions the workloads
## execute into one `.text.hot` ahead of the code they never run, the
## start-up code (`_start`, `crtbegin`'s, and the PLT of glibc's IFUNCs)
## first, and the read-only input sections they read into one
## `.rodata.hot` right after the ELF headers and relocation tables.
## Each page fault in a file mapping maps the 64 KiB window around it,
## aligned in virtual address; the image's base is 64 KiB-aligned
## (`.cargo/config.toml`), so the windows fall at the same offsets of
## the image in every run. Code a run never executes, or a constant it
## never reads, is resident when it shares a window with one it does.
## `hot-text` (crates/ukbuild, `tools/hot_text.rs`) is a `ptrace` tracer
## that puts an `int3` on every function entry of an unstripped image
## and records the first hit of each, and reads the image's present
## pages from `/proc/<pid>/pagemap` at the tracee's exit stop.
##
## `hot-text` rewrites `hot.ld`. First the read-only probe: it links
## `ukperf` and the two example images into `target/hot-probe` with
## `hot-text probe-script`'s linker script in place of `hot.ld`
## (`UKPLAT_HOT_LD`), which gives every read-only input section a
## 64 KiB window of its own, and with `-Wl,-Map` (through
## `CARGO_TARGET_X86_64_UNKNOWN_LINUX_GNU_RUSTFLAGS`, which cargo adds
## to the config's `rustflags` rather than replacing them); each image's
## map is kept beside it. `hot-text probe` runs each workload and
## example on its probe image: a window present at exit names the
## section it holds. Then two rounds of code traces: each builds
## `ukperf` and the two example images, traces the six workloads
## (seeds 2–7, 2 s each; seed 1, the benchmark's, is left for
## `verify-hot-text`), `webserver` and `event_server`, and writes the
## union (`hot::script`): the sections read, smallest first, and the
## functions run, grouped by the set of traces that ran each and laid
## out to touch the fewest windows. The second round builds with the
## script the first wrote and traces again, so what one run missed
## another catches; a trace's file name is its source, so the rounds
## merge.
## `verify-hot-text` builds `ukperf`, traces each workload for 1 s and
## prints the bytes of the functions it ran, the share of them inside
## `.text.hot`, the 64 KiB windows they touch beside ⌈bytes /
## 64 KiB⌉, and the windows of the read-only segment resident at exit.
## It fails below 99.9 % on any workload (what runs outside is a stale
## `hot.ld`), above ⌈bytes / 64 KiB⌉ + 2 code windows
## (`hot::MAX_EXTRA_WINDOWS`): http-wrk, redis-pipe and conn-churn sit
## at + 2, the others at + 1, because a linker script names C code by
## object and every monomorph of a generic function by one glob, so
## more is placed than is run), or above one read-only window
## (`rodata::MAX_WINDOWS`: a constant read outside `.rodata.hot`).
## Both build into `target/ukperf` (building `benchmark/` rewrites its
## stale `Cargo.lock`: `git checkout benchmark/Cargo.lock` afterwards).
HOT_TEXT = $(CARGO) run -q --release --offline -p ukbuild --bin hot-text --
HOT_LIBS = $(foreach f,libc.a libm.a,--lib "$$(cc -print-file-name=$(f))")
HOT_UKPERF = target/ukperf/release/ukperf
HOT_PROBE = $(CURDIR)/target/hot-probe
WORKLOADS = http-wrk redis-pipe tcp-rr tcp-bulk tcp-lossy conn-churn
hot-text:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; traces=; \
	mkdir -p $(HOT_PROBE) "$$dir/ro"; \
	$(HOT_TEXT) probe-script "$$dir/probe.ld"; \
	cmp -s "$$dir/probe.ld" $(HOT_PROBE)/probe.ld || cp "$$dir/probe.ld" $(HOT_PROBE)/probe.ld; \
	probe_build() { \
		image=$$1; shift; rm -f $(HOT_PROBE)/last.map; \
		UKPLAT_HOT_LD=$(HOT_PROBE)/probe.ld \
		CARGO_TARGET_X86_64_UNKNOWN_LINUX_GNU_RUSTFLAGS="-C link-arg=-Wl,-Map=$(HOT_PROBE)/last.map" \
			$(CARGO) build -q --release --offline --target-dir $(HOT_PROBE) "$$@"; \
		if [ -f $(HOT_PROBE)/last.map ]; then mv $(HOT_PROBE)/last.map $(HOT_PROBE)/$$image.map; fi; \
	}; \
	probe_build ukperf --manifest-path benchmark/Cargo.toml; \
	probe_build webserver --example webserver; \
	probe_build event_server --example event_server; \
	seed=2; for w in $(WORKLOADS); do \
		$(HOT_TEXT) probe --map $(HOT_PROBE)/ukperf.map "$$dir/ro/$$w" -- $(HOT_PROBE)/release/ukperf --workload $$w --seed $$seed --seconds 2; \
		traces="$$traces $$dir/ro/$$w"; seed=$$((seed + 1)); \
	done; \
	for e in webserver event_server; do \
		$(HOT_TEXT) probe --map $(HOT_PROBE)/$$e.map "$$dir/ro/$$e" -- $(HOT_PROBE)/release/examples/$$e; traces="$$traces $$dir/ro/$$e"; \
	done; \
	for r in 1 2; do \
		mkdir "$$dir/$$r"; \
		$(CARGO) build -q --release --offline --example webserver --example event_server; \
		$(CARGO) build -q --release --offline --manifest-path benchmark/Cargo.toml --target-dir $(CURDIR)/target/ukperf; \
		seed=2; for w in $(WORKLOADS); do \
			$(HOT_TEXT) trace $(HOT_LIBS) "$$dir/$$r/$$w" -- $(HOT_UKPERF) --workload $$w --seed $$seed --seconds 2; \
			traces="$$traces $$dir/$$r/$$w"; seed=$$((seed + 1)); \
		done; \
		for e in webserver event_server; do \
			$(HOT_TEXT) trace $(HOT_LIBS) "$$dir/$$r/$$e" -- target/release/examples/$$e; traces="$$traces $$dir/$$r/$$e"; \
		done; \
		$(HOT_TEXT) script crates/ukplat/link/hot.ld $$traces; \
	done

verify-hot-text:
	@set -e; \
	$(CARGO) build -q --release --offline --manifest-path benchmark/Cargo.toml --target-dir $(CURDIR)/target/ukperf; \
	fail=0; for w in $(WORKLOADS); do \
		$(HOT_TEXT) cover --min 99.9 --label $$w -- $(HOT_UKPERF) --workload $$w --seconds 1 || fail=1; \
	done; \
	test $$fail -eq 0 || { echo "verify-hot-text: a workload runs code outside .text.hot, over more windows than it needs, or reads constants outside .rodata.hot: make hot-text" >&2; exit 1; }

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
	$(MAKE) verify-hot-text
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
