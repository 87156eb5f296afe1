#!/usr/bin/env sh
# 3-node fabric smoke: boots a real replicated apollod fabric over TCP,
# waits for the ring to converge, and checks topology + per-topic
# replication status through apolloctl. Wall time is bounded twice over:
# the poll loop gives up after DEADLINE seconds, and the daemons exit on
# their own -duration even if this script is killed before the trap runs.
set -eu

cd "$(dirname "$0")/.."

BASE=${FABRIC_SMOKE_PORT:-17070}
A0="127.0.0.1:$BASE"
A1="127.0.0.1:$((BASE + 1))"
A2="127.0.0.1:$((BASE + 2))"
DEADLINE=${FABRIC_SMOKE_DEADLINE:-40}

tmp=$(mktemp -d)
pids=""
cleanup() {
    # shellcheck disable=SC2086
    [ -n "$pids" ] && kill $pids 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "==> building apollod + apolloctl"
go build -o "$tmp/apollod" ./cmd/apollod
go build -o "$tmp/apolloctl" ./cmd/apolloctl

echo "==> starting 3-node fabric on $A0 $A1 $A2"
"$tmp/apollod" -listen "$A0" -node-id n0 -peers "n1=$A1,n2=$A2" \
    -replicas 3 -duration 90s -compute 1 -storage 1 >"$tmp/n0.log" 2>&1 &
pids="$pids $!"
"$tmp/apollod" -listen "$A1" -node-id n1 -peers "n0=$A0,n2=$A2" \
    -replicas 3 -duration 90s -compute 1 -storage 1 >"$tmp/n1.log" 2>&1 &
pids="$pids $!"
"$tmp/apollod" -listen "$A2" -node-id n2 -peers "n0=$A0,n1=$A1" \
    -replicas 3 -duration 90s -compute 1 -storage 1 >"$tmp/n2.log" 2>&1 &
pids="$pids $!"

fail() {
    echo "smoke_fabric: $1" >&2
    for n in n0 n1 n2; do
        echo "--- $n.log ---" >&2
        cat "$tmp/$n.log" >&2 || true
    done
    exit 1
}

# Converged when every node reports a 3-member ring and every replicated
# topic has a valid leader (a row with a blank LEADER column means the
# lease lapsed or was never acquired). Leadership is first-acquire-wins,
# so one node legitimately may lead everything — don't require each node
# to lead something.
echo "==> waiting for ring convergence + a leader for every topic"
elapsed=0
while :; do
    ok=1
    for addr in "$A0" "$A1" "$A2"; do
        members=$("$tmp/apolloctl" -addr "$addr" topology 2>/dev/null | wc -l) || members=0
        [ "$members" -eq 3 ] || { ok=0; break; }
    done
    if [ "$ok" -eq 1 ]; then
        # Data rows have 6 fields (TOPIC EPOCH LEADER ROLE LAG STATE);
        # a leaderless topic drops to 5. Require >= 1 topic, all led.
        leaderless=$("$tmp/apolloctl" -addr "$A0" replication 2>/dev/null |
            awk 'NR > 1 { total++; if (NF < 6) missing++ }
                 END { print (total > 0 && missing == 0) ? 0 : 1 }') || leaderless=1
        [ "$leaderless" -eq 0 ] || ok=0
    fi
    if [ "$ok" -eq 1 ]; then
        break
    fi
    elapsed=$((elapsed + 1))
    if [ "$elapsed" -ge "$DEADLINE" ]; then
        fail "fabric did not converge within ${DEADLINE}s"
    fi
    sleep 1
done

# Leadership must be real: no topic may report a degraded leader, and the
# published streams must be readable through any member.
if "$tmp/apolloctl" -addr "$A1" replication | grep -q ' degraded$'; then
    fail "replication reports degraded topics right after convergence"
fi
topics=$("$tmp/apolloctl" -addr "$A2" topics | wc -l)
if [ "$topics" -lt 1 ]; then
    fail "no topics visible through follower $A2"
fi

# A remote subscription must deliver: tail the first topic through a
# follower and require two tuples within the bound.
first=$("$tmp/apolloctl" -addr "$A2" topics | head -n 1)
echo "==> watch $first via $A2"
printed=$(timeout 10 "$tmp/apolloctl" -addr "$A2" watch "$first" | head -n 2 | wc -l)
if [ "$printed" -ne 2 ]; then
    fail "watch $first via $A2 printed $printed tuples in 10s, want 2"
fi

echo "==> topology via $A0"
"$tmp/apolloctl" -addr "$A0" topology
echo "==> replication via $A0"
"$tmp/apolloctl" -addr "$A0" replication

# A node whose vertices are stuck in a publish never finishes Stop: SIGTERM
# must end all three promptly (a survivor gets SIGQUIT first, so its
# goroutine dump is in the log that fail prints).
echo "==> shutdown: SIGTERM must stop every node"
# shellcheck disable=SC2086
kill $pids
elapsed=0
while :; do
    alive=""
    for p in $pids; do
        # An exited child is a zombie until the shell reaps it: not alive.
        if kill -0 "$p" 2>/dev/null && ! grep -q '^State:[[:space:]]*Z' "/proc/$p/status" 2>/dev/null; then
            alive="$alive $p"
        fi
    done
    [ -z "$alive" ] && break
    elapsed=$((elapsed + 1))
    if [ "$elapsed" -ge 15 ]; then
        # shellcheck disable=SC2086
        kill -QUIT $alive 2>/dev/null || true
        sleep 1
        fail "nodes$alive survived SIGTERM for 15s"
    fi
    sleep 1
done

echo "smoke_fabric: OK ($topics topics across a 3-member ring)"
