#!/usr/bin/env bash
# The gate list. CI (.github/workflows/ci.yml) and the verify skill call
# gates by name; the commands and the reason each exists live here only.
#
#   scripts/gates.sh <gate> [<gate>…]   run the named gates in order
#   scripts/gates.sh all                every gate below: what to run before pushing
#
# The smoke gates need jq. Nothing here reaches the network.
set -euo pipefail
cd "$(dirname "$0")/.."

# Where the smoke gates put their reports and databases.
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

gates=(tier1 race cpu14 bench-smoke alloc retention fuzz smoke-loadtest smoke-crawl bench-module loc)

# Tier 1, the gate every PR is held to (ROADMAP.md).
tier1() {
	go vet ./...
	go build ./...
	go test ./...
}

# Every package under the race detector. Rides here among the rest:
# marketsim's TestHistoriesAgainstAModel (the seeded record / has / at
# sequences that hold the piecewise history store to a plain slice and map,
# bounds checks on); the edge acceptance tests (crawls through the edge
# byte-identical to direct crawls before and after a day-roll and under
# chaos on the edge->origin leg, single-flight collapsing stampedes to one
# origin fetch, stale copies covering origin outages, no incoherent
# snapshot while the origin rolls); the fleet acceptance tests (gateway
# listings, stats and proxied app routes byte-identical to a single node
# at 1/2/4/10 shards including an empty one, cursors stable across
# topology errors and epoch swaps, one epoch per response under concurrent
# rolls, crawls converging under shard-kill, the edge stacked on the
# gateway); and the crawler's convergence under every builtin fault
# scenario to the database a fault-free crawl produces. The timeout is
# internal/experiments', which needs ~10 min under -race on one CPU.
race() {
	go test -race -timeout 20m ./...
}

# The model and experiment packages promise byte-identical results for any
# worker count; exercise the invariance and concurrency tests at both a
# serial and a parallel GOMAXPROCS so scheduling differences can't hide an
# ordering bug. Scoped by -run (the full packages would double the fit
# pipeline against one test-binary timeout budget). The load generator
# makes the same promise one tier down — one event list and seed leave a
# byte-identical next-day snapshot at 1 VU, 8 VUs and open-loop, and a
# replay dedups every write — so its two contract tests run here too.
# marketsim's two memos, the genesis and the day-0 market, and a key's one
# simulation and its day views are state every same-key market in the
# process reads: their tests (a hit is the cold build and any other key,
# Config or Profile field a miss, same-key markets stepping and merging
# downloads side by side — arrivals, version bumps, price drift — beside one
# that only exports share nothing they write, same-key markets stay their
# solo twins through a seeded interleaving of steps, deltas and exports with
# a laggard and exports beside steps, days written in place among them,
# beside a dropped market, and as a
# laggard catching up through days written in place, a market that rolls
# keeps no observation array of another and a step nothing of a day another
# market holds, the day-0 view is collected once every market has stepped,
# an export read on another goroutine keeps its day's rows while a lone
# market steps in place, a dropped market costs one row copy and a laggard
# holds its day and logs, sixteen concurrent builders over four keys) run
# ten times at both widths. Construction is pinned here too: the
# catalog and comment digests taken before anything was built by counting,
# the two sorts held to the reflective sorts they replaced (forced ties,
# one element, none), and cap == len on every list, table and stream a
# store builds — the catalog goroutine runs beside New at the second width.
# The per-app comment index stores share is built once for a fleet of one,
# four shards and twenty stores installing it at once (an edited clone of
# the population gets its own), serves a single node's bytes, is never
# written by a merged comment, and its memo pins neither a dropped
# population nor an index no store reads. A stepping simulation's per-app
# arrays are held to 1/64 of room over their length plus the day's
# arrivals.
# So are the two set-up shortcuts those builds take: the bucket-guided Zipf
# and categorical draws held to sort.SearchFloat64s's index, and a ring's
# ownership table held to Owner while four shards' partitioners read and
# grow it at once.
cpu14() {
	go test -race -timeout 20m -cpu 1,4 \
		-run 'Parallel|Invariance|Deterministic|TestSuite|TestWriteReplayDedups' \
		./internal/model ./internal/experiments ./internal/loadgen
	go test -race -cpu 1,4 -count=10 \
		-run 'TestGenesisHitIsIndistinguishable|TestDayZeroHitIsIndistinguishable|TestSharedCatalogLifecycle|TestSameKeyMarketsShareNothingMutable|TestSameKeyMarketsMatchSoloTwins|TestSteppedViewAliasesNothing|TestDayZeroIsCollectedOnceEveryMarketRolls|TestExportOutlivesAnInPlaceStep|TestDroppedMarketCostsOneRowCopy|TestLaggardHoldsItsDayAndLogs|TestConcurrentNewOverDistinctKeys|TestPanickedGenesisIsNotServed' \
		./internal/marketsim
	go test -race -cpu 1,4 \
		-run 'TestGenerateDigests|TestBuiltAtFinalSize|ReflectiveSortsOrder|TestGuidedSearchIsSearchFloat64s|TestOwnsFuncAgreesWithOwnerAsTheTableGrows|TestStoresShareOneCommentIndex|TestIndexMemoPinsNothing|TestMergeNeverWritesTheIndex|TestPerAppArraysGrowByA64th' \
		./internal/catalog ./internal/comments ./internal/marketsim ./internal/storeserver ./internal/dist ./internal/fleet
}

# Compile-and-run the serving-path benchmarks a fixed 100 iterations: not a
# performance gate (CI machines are too noisy), but a fast tripwire for
# compile errors or panics on the perf paths that plain tests do not
# execute. The Hot benchmark runs with -benchmem at -cpu 1,4 so a
# regression that starts allocating on the zero-alloc serving path is
# visible in the log next to the alloc gate. The two cache benchmarks ride
# along as the tripwire for the generic policy instantiation (ledger +
# ordering at K = int32), and ColdFill for the first-touch cost a crawl
# pays once per document version (encode, pay rule, arena copy: its B/op
# and allocs/op are where a reflective encoder or a compress of every small
# document shows).
#
# Then cmd/bench's market, 100k users and 8.2 M scheduled downloads, built
# three times at one and two CPUs. cold is the first market of a seed: B/op
# is where a schedule kept as an int32 per event shows (+33 MB), ns/op
# where a closure shuffle does, and the -cpu 2 row where a catalog
# generated in line instead of beside the schedule does. second-of-a-seed
# is every later one in the process (a fleet's other shards): it takes the
# genesis from the memo, so it should cost about one catalog.Generate and
# allocate no schedule. allocs/op is where construction that grows by
# append shows: 114,076 a market when every developer's name and list was
# an allocation and the tables doubled their way up, 7,433 built at final
# size. BenchmarkMarketPeriod then steps a 20k-user market of the same
# profile through all 4,096 days: s/period is where late-period Step cost
# shows (every fetch-at-most-once check walking a full history) and
# MB-at-drain where per-user ownership sets would (they took a drained
# market from 120 MB to 360 at 100k users).
bench-smoke() {
	go test -run '^$' -short -benchmem -cpu 1,4 \
		-bench 'BenchmarkStoreCursorPage$|BenchmarkStoreAppDetail$|BenchmarkStoreAppDetailHot$|BenchmarkStoreStats$|BenchmarkColdFill$|BenchmarkHistogramObserve$|BenchmarkFitMCParallel|BenchmarkAdvanceDayExport|BenchmarkDayRollWarmArena$|BenchmarkLRUAccess$|BenchmarkLFUAccess$' \
		-benchtime 100x . ./internal/cache
	go test -run '^$' -benchmem -cpu 1,2 \
		-bench 'BenchmarkMarketNew$' -benchtime 3x ./internal/marketsim
	go test -run '^$' -bench 'BenchmarkMarketPeriod/users=20000$' -benchtime 1x ./internal/marketsim
}

# The zero-allocation gate proper: every warm cache-hit route (identity and
# gzip, 200 and 304) must stay within the build-tagged allocation budget —
# 0 normally, a small slack under -race where the instrumented allocator
# charges bookkeeping to the measured path — and a listing slice, rendered
# per request, within its handful. Then the gateway's two budgets, without
# -race for the exact count: one merged 100-row page over four in-process
# shards under ~600 allocations (the decode/re-encode merge took ~3,500;
# the scan/splice merge ~420, nearly all of it the shard round-trips), and
# one detail document proxied to its owning shard ~35, nearly all of them
# net/http's on the gateway→shard hop — the budget of 50 is a tripwire for
# a buffered body or a decoded document, not a target.
alloc() {
	go test -race -run 'TestHitPathAllocBudget|TestHitPathServesBytes' -count=1 ./internal/storeserver
	go test -run 'TestGatewayListAllocBudget|TestGatewayProxyAllocBudget' -count=1 -v ./internal/fleet
}

# The arena-layout regression gate: a fully warmed ~20k-app snapshot's
# document caches must cost O(catalog/64) heap objects (handle blocks +
# slabs), not O(documents). Pointer-per-document caching fails this by two
# orders of magnitude, so any change that reintroduces per-doc allocations
# trips it immediately. Runs without -race: the gate counts live objects
# via runtime/metrics and the race allocator's bookkeeping would distort
# the census. The day-roll retention bounds ride along for the same reason
# — heap bytes an export round leaves behind, slab footprint against live
# document bytes after 40 rolls, the slabs a day-roll's arena takes for
# the few dozen documents a crawl-sized store re-encodes (one 1 MiB slab
# each before arenas ramped up from 16 KiB), allocations of a comment
# merge: under -race those tests keep only their correctness assertions.
# TestMarketFootprint is the gate on what a store holds per scheduled
# download: ⌈log2 users⌉ bits and a quarter byte, which an int32 schedule
# fails twice over; TestSecondMarketFootprint holds the second market of a
# key to 4 KiB (it reads the first one's day 0 in place until it rolls),
# and TestShardsHoldOneGenesisAndNoDenseExport four shards to one store
# plus three that hold neither a market of their own nor a dense export,
# nor a copy of the catalog rows. TestStoresOfOnePopulationHoldOneIndex
# holds twenty stores handed one comment population to one index of it and
# 8 KiB a store, where each store's grouped copy was about 66 KB.
# TestHistoryFootprintFollowsDownloads holds a stepping market's user
# histories to what the users have downloaded so far (slot count and heap
# growth at day 40, slot count at drain); a budget carved whole at first
# touch fails it twelve times over.
# Then the served bytes outliving their snapshot, repeated at three widths
# (~15 s): a view held across rolls, collections and fills must read the
# bytes it was handed, and responses racing day-rolls must each come from
# one day. Slabs recycled when a snapshot was collected failed the first
# 60 times in 60 and the second a few times in 180, under ordinary
# scheduling luck that one tier-1 run does not reliably draw.
retention() {
	go test -run 'TestHeapObjectsGate|TestServingArenasBoundedAcrossRolls|TestArenaFootprintAcrossRolls|TestDayArenaPinsWhatItHolds|TestMergeCommentsCopiesOnlyTheDelta|TestCommentCarrySharesUntouchedBlocks|TestShardsHoldOneGenesisAndNoDenseExport|TestStoresOfOnePopulationHoldOneIndex' \
		-count=1 -timeout 10m ./internal/storeserver
	go test -run 'TestHeldViewOutlivesItsSnapshot|TestSnapshotConsistencyUnderAdvanceDay' \
		-count=20 -cpu 1,2,4 -timeout 10m ./internal/storeserver
	go test -run 'TestExportRetentionPerRound|TestMarketFootprint|TestSecondMarketFootprint|TestHistoryFootprintFollowsDownloads' -count=1 -v ./internal/marketsim
}

# A fixed 30 s budget per target on top of the seed corpora, which every
# plain `go test` already replays: the shard-page walker against
# encoding/json; the gateway's g1: multi-anchor cursor (never panics,
# round-trips any anchor vector, re-packs what it accepts); the packed
# download schedule's round trip; the wire
# grammar (ParsePath against a strings.Split parser, QueryValue against
# url.ParseQuery, the cursor codec's round trip and range, ETagMatch
# against the strings.Split walk it replaced); and the store's append-based
# document encoder, string and float appenders against json.Marshal; the
# POST body decoder (never panics, answers only documented statuses, acks
# only a valid user and rating); the crawl database's JSONL reader (never panics, whatever loads round-trips)
# and the loader behind experiments -db (never panics, and what it accepts
# is a series Series.Append accepts).
fuzz() {
	local target
	for target in \
		'FuzzScanPage ./internal/fleet' \
		'^FuzzGatewayCursor$ ./internal/fleet' \
		'^FuzzPackedSeq$ ./internal/marketsim' \
		'^FuzzParsePath$ ./internal/apiwire' \
		'^FuzzQueryValue$ ./internal/apiwire' \
		'^FuzzCursorRoundTrip$ ./internal/apiwire' \
		'^FuzzETagMatch$ ./internal/apiwire' \
		'^FuzzAppendRow$ ./internal/storeserver' \
		'^FuzzAppendJSONString$ ./internal/storeserver' \
		'^FuzzAppendJSONFloat$ ./internal/storeserver' \
		'^FuzzWriteBody$ ./internal/storeserver' \
		'^FuzzReadFrom$ ./internal/db' \
		'^FuzzLoad$ ./internal/experiments'; do
		go test -run '^$' -fuzz "${target% *}" -fuzztime 30s "${target#* }"
	done
}

# cmd/loadtest end to end, each run gated on its JSON report with jq.
smoke-loadtest() {
	# Short replay of a model-generated workload against an in-process
	# store in both disciplines; stays well under a minute.
	go run ./cmd/loadtest -mode both -events 5000 -stages 500x4s -vus 16 \
		-think 1ms -warmup 500ms -out "$out/loadgen.json"

	# Open-loop run straddling a mid-load AdvanceDay: exercises delta
	# export, snapshot carry-forward, and the pre/post-swap latency split
	# end to end. Fails if the roll never happened or any response mixed
	# two days.
	go run ./cmd/loadtest -mode open -events 20000 -stages 500x4s \
		-warmup 500ms -day-roll 1500ms -out "$out/dayroll.json"
	jq -e '.open.day_roll.rolled and .open.day_roll.mixed_epoch_responses == 0' "$out/dayroll.json"

	# Hit-rate floor: a short open-loop run through the edge with origin
	# freshness on and gzip negotiated: a warmed second-pass workload must
	# be served mostly from the edge. Every eighth event browses the
	# listing. Nothing the run fetches has a gzip representation — detail
	# rows are under gzipx's size floor, listing slices are identity only
	# — so the negotiating client must be answered in identity throughout
	# (the edge's two-representation handling is the race gate's). Fails
	# if the edge served less than 40% of requests from its cache or if
	# any response claimed gzip.
	go run ./cmd/loadtest -edge -edge-policy lru -edge-mb 4 \
		-origin-fresh 60s -gzip -list-every 8 \
		-mode open -events 10000 -stages 1000x6s \
		-warmup 500ms -scale 0.1 -out "$out/edge.json"
	jq -e '.edge.cache_serve_rate >= 40' "$out/edge.json"
	jq -e '.open.gzip_responses == 0 and .open.identity_bytes > 0' "$out/edge.json"

	# Scaling + epoch floor: a closed-loop run against a 2-shard fleet of
	# fixed-capacity nodes (80 slots x 200ms service time each => 400
	# req/s per node — the capacity model BENCH_fleet.json was captured
	# under) with a mid-run two-phase fleet day-roll. Fails if the fleet
	# throughput does not clear a single node's 400 req/s ceiling by a
	# wide margin — the scatter-merge tax and ring imbalance must not eat
	# the second shard (full bench: 1.85x at 2 shards, 2.96x at 4; see
	# BENCH_fleet.json) — or if any response mixed epochs after the swap.
	go run ./cmd/loadtest -shards 2 -vnodes 2048 \
		-scale 1 -model zipf -zipf 0 \
		-mode closed -vus 320 -think 0 \
		-events 20000 -list-every 16 \
		-server-latency 200ms -server-capacity 80 \
		-warmup 500ms -day-roll 5s -out "$out/fleet.json"
	jq -e '.closed.throughput_rps > 550' "$out/fleet.json"
	jq -e '.closed.day_roll.rolled and .closed.day_roll.mixed_epoch_responses == 0' "$out/fleet.json"
	jq -e '.fleet.gateway.epoch_skews == 0' "$out/fleet.json"

	# No lost acks: an open-loop run over /api/v1 with 20% of events
	# driving the write funnel (POST download/rate/comments) and a
	# two-phase day-roll mid-run, so acknowledged writes straddle the
	# epoch swap — against a single node (-shards 0: a fleet of one,
	# driven directly), against a 2-shard fleet, where the gateway
	# forwards each write to the owning shard, and through an edge in
	# front of a single node, which relays each write uncached. Fails if
	# any post-roll response mixed epochs, if any write was rejected or
	# errored, if an endpoint's outcomes do not add up to its posts, or if
	# the drained WAL shows an acknowledged write that never merged
	# (accepted != merged or records left pending after the drain rolls);
	# the single node must not have crossed the gateway. The read-path
	# alloc budget is the alloc gate's — this run proves the write path
	# rides along without disturbing it.
	local target w
	for target in '-shards 0' '-shards 2' '-edge'; do
		w="$out/write${target// /}.json"
		# shellcheck disable=SC2086 # the flags are split on purpose
		go run ./cmd/loadtest $target \
			-mode open -events 20000 -stages 500x6s \
			-write-mix 0.2 -warmup 500ms -day-roll 2s -out "$w"
		jq -e '.open.day_roll.rolled and .open.day_roll.mixed_epoch_responses == 0' "$w"
		jq -e '.open.write_accepted > 0' "$w"
		jq -e '[.open.writes[] | .rejected + .errors] | add == 0' "$w"
		jq -e '.open.writes | length == 3 and all(.posts == .accepted + .deduped + .duplicate + .backpressure_429 + .rejected + .errors)' "$w"
		jq -e '.wal.accepted > 0 and .wal.accepted == .wal.merged and .wal.pending == 0' "$w"
	done
	jq -e '.fleet.shards == 1 and .fleet.gateway.proxied == 0' "$out/write-shards0.json"

	# Chaos: a short open-loop run over /api/v1 with the latency scenario
	# armed and the resilient client driving: exercises fault injection,
	# the error envelope, and hedged recovery end to end.
	go run ./cmd/loadtest -mode open -events 2000 -stages 300x4s \
		-warmup 500ms -scale 0.05 -chaos latency \
		-resilient -hedge-after 15ms -max-hedges 3 -out "$out/chaos.json"
}

# cmd/crawl end to end. Each crawl must complete, and be the fault-free
# crawl testdata/crawl.golden pins: the same sorted database (its sha256)
# and, through experiments -db, the same T1 and F2-F7 tables.
smoke-crawl() {
	# Two crawl days routed through the in-process edge tier with an
	# error-burst scenario armed on the edge->origin leg.
	go run ./cmd/crawl -days 2 -scale 0.05 -proxies 0 \
		-via-edge -edge-policy category \
		-edge-chaos error-burst -chaos-scale 0.2 -out "$out/edge-crawl.jsonl"

	# Daily crawls against a partitioned in-process fleet behind the
	# gateway, with shard 0 periodically killed.
	go run ./cmd/crawl -days 2 -scale 0.05 -proxies 0 \
		-shards 3 -chaos shard-kill -retries 60 -out "$out/fleet-crawl.jsonl"

	# Daily crawls through three in-process forward proxies with the
	# proxy-partition scenario armed on them (node 0 resets everything,
	# node 1 half): proxy health must route around both.
	go run ./cmd/crawl -days 2 -scale 0.05 -proxies 3 \
		-chaos proxy-partition -out "$out/proxy-crawl.jsonl"

	local db
	for db in "$out/edge-crawl.jsonl" "$out/fleet-crawl.jsonl" "$out/proxy-crawl.jsonl"; do
		echo "sorted-db-sha256 $(LC_ALL=C sort "$db" | sha256sum | cut -d' ' -f1)" >"$out/got"
		go run ./cmd/experiments -db "$db" T1 F2 F3 F4 F5 F6 F7 >>"$out/got"
		diff -u testdata/crawl.golden "$out/got"
	done
}

# cmd/bench is a module of its own (replace planetapps => ../..), so the
# root `go vet/test ./...` never see it; it compiling against the tree is
# also the tripwire for an export deleted by mistake.
bench-module() {
	(cd cmd/bench && go vet ./... && go test ./...)
}

# The figures simplicity PRs quote in CHANGES.md: non-test Go lines outside
# the frozen cmd/bench, in cmd and in every internal/ package, and the
# settings census — the exported fields of internal/'s *Config, *Options
# and *Spec structs, every one of which some program, test or other
# package sets (TestEveryConfigFieldIsSet logs the count). Informational:
# never fails.
loc() {
	local pkgs=(internal/*/)
	scripts/loc.sh cmd "${pkgs[@]%/}" || true
	go test -count=1 -run TestEveryConfigFieldIsSet -v . | grep 'config fields' || true
}

if [ $# -eq 0 ]; then
	sed -n '2,8p' "$0"
	exit 2
fi
if [ "$1" = all ]; then
	set -- "${gates[@]}"
fi
for gate; do
	case " ${gates[*]} " in
	*" $gate "*) ;;
	*)
		echo "gates.sh: unknown gate '$gate' (have: ${gates[*]})" >&2
		exit 2
		;;
	esac
	echo "=== gate: $gate"
	"$gate"
done
