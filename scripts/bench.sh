#!/bin/sh
# bench.sh — run the performance-regression benchmark suite and emit a JSON
# snapshot comparable against BENCH_baseline.json (via scripts/benchdiff).
# Every run is also appended as a {"ts": ..., "metrics": {...}} row to
# BENCH_history.jsonl, so regressions can be bisected against the timeline,
# not just the pinned baseline.
#
# Tracked numbers:
#   sim_ns_per_event / sim_allocs_per_event   concrete-heap simulator, full
#                                             link hot path (BenchmarkSimEvents)
#   sim_heap_baseline_ns_per_event            container/heap + closure replica
#                                             (BenchmarkSimEventsContainerHeap);
#                                             the ratio to sim_ns_per_event is
#                                             the representation speedup and
#                                             must stay >= 1.5
#   send_ns_per_packet / send_allocs_per_packet  real transport send path with
#                                             a stub socket (BenchmarkSenderPacket)
#   send_traced_ns_per_packet / send_traced_allocs_per_packet  same path with
#                                             a telemetry ring attached
#                                             (BenchmarkSenderPacketTraced);
#                                             allocs must stay exactly zero
#   loopback_mbps                             memory-to-memory UDP loopback
#                                             transfer over the bare
#                                             sendmmsg path (BenchmarkFig14CPU,
#                                             offload disabled)
#   loopback_gso_mbps / syscalls_per_packet   same transfer with UDP_SEGMENT/
#                                             UDP_GRO offload live
#                                             (BenchmarkLoopbackGSO); on kernels
#                                             without offload this converges to
#                                             loopback_mbps with ~1/batch
#                                             syscalls per packet
#   aead_mbps                                 the offloaded transfer again with
#                                             Secure UDT fully on — PSK
#                                             handshake + sealed AES-256-GCM
#                                             data channel
#                                             (BenchmarkLoopbackAEAD); the gap
#                                             to loopback_gso_mbps is the
#                                             crypto tax
#   handshake_auth_us                         listener-side authenticated
#                                             handshake compute: cookie check,
#                                             MAC verify + sign, session-key
#                                             derivation (BenchmarkHandshakeAuth,
#                                             reported in µs)
#   reuseport_4shard_mbps                     aggregate goodput of 4 flows into
#                                             a 4-socket SO_REUSEPORT listener
#                                             group (BenchmarkLoopbackReusePort4);
#                                             scales with cores, not on 1-CPU
#                                             machines
#   sendfile_zc_mbps                          mmap-backed zero-copy file send
#                                             (BenchmarkSendFileZC)
#   mux_demux_ns_per_packet / mux_demux_allocs_per_packet  shared-socket
#                                             socket-ID dispatch, one flow
#                                             (BenchmarkMuxDemux); allocs must
#                                             stay exactly zero
#   mux_demux_4096flows_ns_per_packet         same dispatch with 4096 flows
#                                             resident on the socket
#                                             (BenchmarkMuxDemuxFlows)
#   flowscale_100k_goodput_mbps               aggregate goodput of 100 000
#   flowscale_100k_p99_ack_us                 flows dialed over ONE in-memory
#   flowscale_100k_allocs_per_packet          socket pair, 1 KB pushed through
#   flowscale_100k_peak_goroutines            each (BenchmarkFlowScale100k):
#                                             goodput, p99 write→acked latency,
#                                             allocs per packet, and the peak
#                                             process goroutine count — which
#                                             must stay O(shards + sockets),
#                                             not O(flows); see EXPERIMENTS.md
#   framed_mbps                               full transfers through the
#                                             fabric.Framed stream adapter over
#                                             a TCP loopback connection
#                                             (BenchmarkFramedThroughput)
#   rdv_handshake_p50_us                      median rendezvous crossing
#                                             latency — both sides dialing to
#                                             established connection over an
#                                             in-process pipe
#                                             (BenchmarkRendezvousHandshake;
#                                             median so a rare lost-crossing
#                                             250 ms retransmit outlier does
#                                             not swamp the figure)
#   campaign_<name>_*                         the CI topology campaigns
#                                             (udtchaos -campaign -kv): per-
#                                             campaign aggregate/min goodput,
#                                             Jain fairness index, pooled p99
#                                             write→acked latency and completed
#                                             flow count. Virtual-clock
#                                             deterministic — identical on
#                                             every machine for a given seed,
#                                             so benchdiff holds them to 0.1%.
set -eu
cd "$(dirname "$0")/.."
out="${1:-/dev/stdout}"

sim=$(go test ./internal/netsim -run XXX -bench 'SimEvents$' -benchtime 2s 2>/dev/null | awk '/^BenchmarkSimEvents/ {print $3, $7}')
old=$(go test ./internal/netsim -run XXX -bench 'SimEventsContainerHeap$' -benchtime 2s 2>/dev/null | awk '/^BenchmarkSimEventsContainerHeap/ {print $3}')
snd=$(go test . -run XXX -bench 'SenderPacket$' -benchtime 2s 2>/dev/null | awk '/^BenchmarkSenderPacket/ {print $3, $7}')
sndtr=$(go test . -run XXX -bench 'SenderPacketTraced$' -benchtime 2s 2>/dev/null | awk '/^BenchmarkSenderPacketTraced/ {print $3, $7}')
mbps=$(go test . -run XXX -bench 'Fig14CPU$' -benchtime 1x 2>/dev/null | awk '/^BenchmarkFig14CPU/ {for (i = 1; i < NF; i++) if ($(i+1) == "Mbps") print $i}')
gso=$(go test . -run XXX -bench 'LoopbackGSO$' -benchtime 1x 2>/dev/null | awk '/^BenchmarkLoopbackGSO/ {m = s = "null"; for (i = 1; i < NF; i++) { if ($(i+1) == "Mbps") m = $i; if ($(i+1) == "syscalls/pkt") s = $i } print m, s}')
aead=$(go test . -run XXX -bench 'LoopbackAEAD$' -benchtime 1x 2>/dev/null | awk '/^BenchmarkLoopbackAEAD/ {for (i = 1; i < NF; i++) if ($(i+1) == "Mbps") print $i}')
hsauth=$(go test ./internal/secure -run XXX -bench 'HandshakeAuth$' -benchtime 2s 2>/dev/null | awk '/^BenchmarkHandshakeAuth/ {printf "%.3f\n", $3 / 1000}')
rp=$(go test . -run XXX -bench 'LoopbackReusePort4$' -benchtime 1x 2>/dev/null | awk '/^BenchmarkLoopbackReusePort4/ {for (i = 1; i < NF; i++) if ($(i+1) == "Mbps") print $i}')
zc=$(go test . -run XXX -bench 'SendFileZC$' -benchtime 1x 2>/dev/null | awk '/^BenchmarkSendFileZC/ {for (i = 1; i < NF; i++) if ($(i+1) == "Mbps") print $i}')
mux=$(go test ./internal/mux -run XXX -bench 'MuxDemux$' -benchtime 2s 2>/dev/null | awk '/^BenchmarkMuxDemux/ {print $3, $7}')
muxwide=$(go test ./internal/mux -run XXX -bench 'MuxDemuxFlows/flows=4096$' -benchtime 2s 2>/dev/null | awk '/^BenchmarkMuxDemuxFlows/ {print $3}')
scale=$(go test . -run XXX -bench 'FlowScale100k$' -benchtime 1x -timeout 30m 2>/dev/null | awk '/^BenchmarkFlowScale100k/ {g = p = a = k = "null"; for (i = 1; i < NF; i++) { if ($(i+1) == "goodput-Mbps") g = $i; if ($(i+1) == "p99-ack-µs") p = $i; if ($(i+1) == "allocs/pkt") a = $i; if ($(i+1) == "peak-goroutines") k = $i } print g, p, a, k}')
framed=$(go test ./fabric -run XXX -bench 'FramedThroughput$' -benchtime 2s 2>/dev/null | awk '/^BenchmarkFramedThroughput/ {for (i = 1; i < NF; i++) if ($(i+1) == "Mbps") print $i}')
rdv=$(go test . -run XXX -bench 'RendezvousHandshake$' -benchtime 50x 2>/dev/null | awk '/^BenchmarkRendezvousHandshake/ {for (i = 1; i < NF; i++) if ($(i+1) == "p50_us") print $i}')
# The topology campaigns: key/value lines, rendered straight into the JSON
# object below (deterministic under the virtual clock, so fast and exact).
camp=$(go run ./cmd/udtchaos -campaign -kv | awk '/^campaign_/ {printf "  \"%s\": %s,\n", $1, $2}')

set -- $sim; sim_ns=$1; sim_allocs=$2
set -- $snd; snd_ns=$1; snd_allocs=$2
set -- $sndtr; sndtr_ns=$1; sndtr_allocs=$2
set -- $mux; mux_ns=$1; mux_allocs=$2
set -- $gso; gso_mbps=$1; gso_syscalls=$2
set -- $scale; scale_mbps=$1; scale_p99=$2; scale_allocs=$3; scale_peak=$4

snap=$(mktemp)
trap 'rm -f "$snap"' EXIT

cat > "$snap" <<EOF
{
$camp
  "sim_ns_per_event": $sim_ns,
  "sim_allocs_per_event": $sim_allocs,
  "sim_heap_baseline_ns_per_event": $old,
  "send_ns_per_packet": $snd_ns,
  "send_allocs_per_packet": $snd_allocs,
  "send_traced_ns_per_packet": $sndtr_ns,
  "send_traced_allocs_per_packet": $sndtr_allocs,
  "loopback_mbps": $mbps,
  "loopback_gso_mbps": $gso_mbps,
  "syscalls_per_packet": $gso_syscalls,
  "aead_mbps": $aead,
  "handshake_auth_us": $hsauth,
  "reuseport_4shard_mbps": $rp,
  "sendfile_zc_mbps": $zc,
  "mux_demux_ns_per_packet": $mux_ns,
  "mux_demux_allocs_per_packet": $mux_allocs,
  "mux_demux_4096flows_ns_per_packet": $muxwide,
  "flowscale_100k_goodput_mbps": $scale_mbps,
  "flowscale_100k_p99_ack_us": $scale_p99,
  "flowscale_100k_allocs_per_packet": $scale_allocs,
  "flowscale_100k_peak_goroutines": $scale_peak,
  "framed_mbps": $framed,
  "rdv_handshake_p50_us": $rdv
}
EOF

# Emit the snapshot, then append it (one line, timestamped) to the history.
cat "$snap" > "$out"
ts=$(date -u +%Y-%m-%dT%H:%M:%SZ)
printf '{"ts":"%s","metrics":%s}\n' "$ts" "$(tr -d ' \n' < "$snap")" >> BENCH_history.jsonl
