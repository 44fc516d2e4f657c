#!/usr/bin/env bash
# Distributed campaign walkthrough: one coordinator, two socket workers.
#
# Everything runs on localhost here, but the pieces are exactly what a
# multi-host deployment uses: `serve` is the coordinator service, each
# `worker` is one fleet member on any machine that can reach it, and
# `status` is a point-in-time snapshot client.  Swap 127.0.0.1 for a real
# hostname and the same commands span machines.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

PORT=7333
CKPT=$(mktemp -u /tmp/fabric-campaign-XXXX.ckpt.jsonl)

# 1. The coordinator: binds the port, waits for 2 workers, leases matrix
#    cells, folds results, journals each one.  --fault-tolerance
#    defaults to `requeue` under serve: worker death mid-lease requeues
#    the unfinished iterations on the survivors (findings unchanged —
#    iterations are seeded purely from (config, iteration)).
#    --linger keeps the final status queryable after the campaign ends.
python -m repro.campaign serve --host 127.0.0.1 --port "$PORT" \
    --iterations 24 --workers 2 --shards 2 --seed 13 \
    --min-workers 2 --checkpoint "$CKPT" --linger 5 --quiet &
SERVE_PID=$!
sleep 1

# 2. The fleet: each worker connects, handshakes (protocol-versioned),
#    and executes leases, building each cell's compilers from the registry
#    names its lease carries, streaming per-iteration results and
#    heartbeats back.
python -m repro.campaign worker --connect "127.0.0.1:$PORT" --name worker-a &
python -m repro.campaign worker --connect "127.0.0.1:$PORT" --name worker-b &

# 3. Watch it run: the status endpoint answers on the same port with
#    per-cell progress, findings count, and the worker roster with
#    heartbeat ages.
sleep 2
python -m repro.campaign status --connect "127.0.0.1:$PORT" || true

wait "$SERVE_PID"
echo
echo "Campaign checkpoint (resumable under ANY transport — local pool,"
echo "in-process, or another socket fleet): $CKPT"
