#!/bin/sh
# ci.sh — the repository's gate: vet, build, documentation checks, and every
# test under the race detector. Run it before sending a change.
set -eux
cd "$(dirname "$0")/.."
test -z "$(gofmt -l .)"
go vet ./...
go build ./...
# The benchmark is a nested module (bench/go.mod) that imports a dozen
# udt/internal/... packages; ./... above does not reach it, so an internal
# API change could break the benchmark without failing anything here.
(cd bench && go vet ./... && go test ./...)
# The root package's non-test line count — the shells around the one
# engine — is a tracked outcome (ROADMAP, "quality of design").
echo "root package non-test Go lines: $(ls *.go | grep -v _test | xargs wc -l | tail -1)"
# And the one wire format's share of it: the shell, the demultiplexer and
# the codec together.
echo "root + internal/mux + internal/packet non-test Go lines: $(ls *.go internal/mux/*.go internal/packet/*.go | grep -v _test | xargs wc -l | tail -1)"
# So is what is left of the test-only shells (chaos.Peer and the
# virtual-clock drivers), and the whole tree outside the frozen benchmark.
echo "chaos + campaign non-test Go lines: $(ls internal/netem/chaos/*.go internal/campaign/*.go | grep -v _test | xargs wc -l | tail -1)"
echo "non-test Go lines outside bench/: $(find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs wc -l | tail -1)"
# So is what a connection costs: the three memory budget tests run by name —
# bytes allocated per dial+echo+close, live heap per idle flow, and heap
# growth over 100 000 request/response exchanges — and their figures are
# printed beside the line counts.
budget=$(go test -run 'TestConnLifecycleBytes|TestIdleFlowHoldsNoPayload|TestRequestResponseResidency' -count=1 -v .)
echo "$budget" | grep -E 'bytes/conn=|heap/flow=|heap before='
# And what a syscall, an ACK and a blocking pipe read allocate: the three
# gates that drive the real socket, the warm estimator windows and the
# deadline timer — the sites the discardSock-based gates cannot see.
allocgates=$(go test -run 'TestMmsgSyscallAllocs|TestAckEmissionAllocs|TestPipeAllocs' -count=1 -v . ./internal/core ./fabric)
echo "$allocgates" | grep -E 'allocs/(call|ACK|read)'
# Cross-compile gates: the Linux offload fast path (GSO/GRO, SO_REUSEPORT
# groups, mmap sendfile) must keep the portable stubs compiling on
# platforms that lack it.
GOOS=darwin go build ./...
GOOS=windows go build ./...
# Documentation gates: every exported identifier in the audited packages —
# including the root package (Conn/Mux/pool scheduler APIs) and the shared
# timer wheel — must carry a doc comment, and every relative Markdown link
# must resolve (mdcheck covers DESIGN.md, EXPERIMENTS.md and README.md).
go run ./scripts/doccheck
go run ./scripts/mdcheck
# Fast fail on the concurrency-heavy packages first: the demultiplexer and
# the chaos harness in short mode, before the full (slower) race run.
go test -race -short ./internal/mux ./internal/netem/chaos
# TestCISetDigestsPinned is a single-threaded virtual-clock run the detector
# only slows (~30 s against under 1 s): skipped here, run once plain below.
go test -race -skip '^TestCISetDigestsPinned$' ./...
go test -run '^TestCISetDigestsPinned$' -count=1 ./internal/campaign
# The sealed channel again on the portable GCM (no AES/GHASH assembly): the
# known-answer vectors, the tamper table and the 0 allocs/packet gate must
# hold on the path a CPU without those instructions takes.
go test -tags purego ./internal/secure
# Fuzz smoke: the handshake codec — including the security option fields
# an attacker controls pre-authentication — must never panic or over-read,
# and must stay canonical (decode∘encode identity). A short run per pass;
# longer campaigns reuse the accumulated corpus.
go test ./internal/packet -run XXX -fuzz 'FuzzDecodeHandshake' -fuzztime 10s
# The rendezvous trailer rides the same attacker-controlled handshake
# bytes; its codec gets its own smoke run.
go test ./internal/packet -run XXX -fuzz 'FuzzRendezvousTrailer' -fuzztime 10s
# The GRO split walks a kernel-coalesced train by a segment size that
# arrives in a cmsg; any (length, size) pair must yield in-bounds segments.
go test . -run XXX -fuzz 'FuzzSplitSegments' -fuzztime 10s
# The demultiplexer sees every datagram anyone sends the socket: it must
# never panic, deliver exactly what is behind the prefix, and account for
# each datagram once (delivered, handshake, unknown destination or short).
go test ./internal/mux -run XXX -fuzz 'FuzzCoreDispatch' -fuzztime 10s
# Offload smoke: proves UDP_SEGMENT trains actually flow on capable
# kernels and prints the train/syscall verdict; the test skips itself
# (never fails) where the kernel or container runtime withholds
# segmentation offload.
go test -run 'TestGSOSmoke' -count=1 -v .
# Fault-injection gate: the fixed-seed chaos matrix with determinism replay
# and a real-stack smoke pass (a few seconds under the virtual clock).
go run ./cmd/udtchaos -determinism -real
# Congestion-control gate: every pluggable law through loss plus the
# two-law fairness cells, bit-identical on replay.
go run ./cmd/udtchaos -ccmatrix -determinism
# Campaign gate: the CI topology campaigns — the 100-flow mixed-law dumbbell
# and the 32-flow flash-crowd star — run twice each and must replay
# bit-identically. Their stability across commits is TestCISetDigestsPinned
# (internal/campaign), already run by `go test` above.
go run ./cmd/udtchaos -campaign -determinism
# Benchmark smoke: all five workloads of bench/run.sh on 2-second windows
# must finish inside two minutes, each reporting "correct":true. The full
# benchmark is the driver's job; this is here because a workload that stops
# making progress does not fail, it hangs, and should cost CI two minutes
# rather than the pipeline's timeout.
smoke=$(timeout 120 bash bench/run.sh --seconds 2)
test "$(echo "$smoke" | grep -c '"correct":true')" -eq 5
# The bulk workloads allocate per Write, not per packet or per syscall: a
# 1 MiB block is ~730 packets, so anything that allocates on a per-packet or
# per-ACK path again reads in the hundreds here (it read ≈450 until the
# syscall closures and the sorting median filter went). Two seconds are too
# few to gate a rate on and plenty for a count.
echo "$smoke" | awk '
/^== / { w = $2 }
/^\{"correct"/ && (w == "bulk_clear" || w == "bulk_aead") {
	if (!match($0, /"allocs_per_msg":\{"value":[0-9.e+-]+/)) exit 1
	v = substr($0, RSTART, RLENGTH); sub(/.*:/, "", v)
	printf "%s allocs_per_msg %s\n", w, v
	if (v + 0 >= 20) bad = 1
	n++
}
END { exit bad || n != 2 }'
