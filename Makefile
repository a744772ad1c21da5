GO ?= go

.PHONY: all build test race muxrace fabric vet ci smoke docs chaos ccmatrix campaign

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# muxrace is the quick concurrency gate: the shared-socket demultiplexer and
# the chaos harness under the race detector in short mode (the full 1000-flow
# stress runs in `make race`).
muxrace:
	$(GO) vet ./internal/mux ./internal/netem/chaos
	$(GO) test -race -short ./internal/mux ./internal/netem/chaos

# fabric is the transport-adapter + rendezvous + udtfs race gate: the pipe
# and framed adapters, simultaneous-dial crossings on shared mux sockets
# (TestRendezvousCrossingStress), and the resumable transfer service, all
# under the race detector in short mode.
fabric:
	$(GO) vet ./fabric ./udtfs .
	$(GO) test -race -short ./fabric ./udtfs
	$(GO) test -race -short -run 'TestRendezvous|TestRdvWins' .

vet:
	$(GO) vet ./...

ci:
	sh scripts/ci.sh

# docs runs the documentation gates: godoc coverage of the audited packages
# (including the root package and the timer wheel) and Markdown link
# integrity.
docs:
	$(GO) run ./scripts/doccheck
	$(GO) run ./scripts/mdcheck

# chaos runs the fixed-seed fault-injection matrix: full transfers of
# checksummed payloads through impaired netem paths (loss, bursts,
# corruption, reordering, partitions), each cell replayed twice under the
# virtual clock and required to be bit-identical, plus a real-stack smoke
# pass. Seconds of wall time; see EXPERIMENTS.md.
chaos:
	$(GO) run ./cmd/udtchaos -determinism -real

# ccmatrix runs the congestion-control matrix: each pluggable law (native,
# ctcp, scalable, hstcp) carrying transfers through loss, plus fairness cells
# racing two laws over one shared rate-capped link — all replayed twice and
# required to be bit-identical. See DESIGN.md "Configurable congestion
# control".
ccmatrix:
	$(GO) run ./cmd/udtchaos -ccmatrix -determinism

# campaign runs the CI topology campaigns: the 100-flow mixed-law dumbbell
# and the 32-flow flash-crowd star over multi-hop netem fabrics, each
# replayed twice and required to hash identically. Their digests are pinned
# across commits by TestCISetDigestsPinned (internal/campaign). Seconds of
# wall time; see DESIGN.md §4.12 and EXPERIMENTS.md.
campaign:
	$(GO) run ./cmd/udtchaos -campaign -determinism -v

# smoke is the fast correctness pass: the allocation gates plus the simulator
# determinism suite.
smoke:
	$(GO) test ./internal/netsim -run 'ZeroAlloc|Pool|DoubleFree|TotalOrder' -count=1
	$(GO) test . -run 'TestSenderPathAllocs|TestDrainOutboxSizing' -count=1
