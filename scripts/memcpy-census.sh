#!/usr/bin/env bash
# memcpy-census.sh <binary> [packet-bytes]
#
# Lists every `call memcpy`/`memmove` inside the simulator's packet-path
# functions of a release binary (normally perf/target/release/planp_perf),
# with the constant length the call was given. A `Packet` is handed over
# by value about ten times per hop; the compiler copies up to 128 bytes
# inline and calls libc above that, so a row whose length is
# size_of::<Packet>() (default 112; it was 144 = 0x90 in every one of
# these functions before the packet was thinned) means the packet grew
# back over the threshold. The script only prints; CI fails when its
# last line counts any call, or no packet-path function at all (the size
# pins in crates/netsim/src/packet.rs hold the type's own size).
set -euo pipefail

bin=${1:?usage: memcpy-census.sh <binary> [packet-bytes]}
packet=${2:-112}
[ -r "$bin" ] || { echo "memcpy-census: cannot read $bin" >&2; exit 2; }
command -v objdump >/dev/null || { echo "memcpy-census: objdump not found" >&2; exit 2; }

objdump -d -C --no-show-raw-insn "$bin" | awk -v packet="$packet" '
function hex(s,    i, c, v) {
    v = 0; s = tolower(s)
    for (i = 1; i <= length(s); i++) {
        c = index("0123456789abcdef", substr(s, i, 1)) - 1
        v = v * 16 + c
    }
    return v
}
BEGIN {
    paths = "Sim>?::(arrive|process_arrival|deliver_local|deliver_to_app)>:$" \
        "|NodeApi::send>:$|enqueue_on_link>:$|PacketSlab::(put|take)>:$" \
        "|(PlanpLayer|ClusterGateway|NativeHttpGateway) as netsim::node::PacketHook>::on_packet>:$" \
        "|SimNetEnv::emit>:$|SimNetEnv as planp_vm::env::NetEnv>::send_remote>:$"
}
# A function header: `00000000001c7010 <netsim::ip::<impl netsim::sim::Sim>::arrive>:`
/^[0-9a-f]+ <.*>:$/ {
    inside = ($0 ~ paths)
    sym = $0; sub(/^[0-9a-f]+ </, "", sym); sub(/>:$/, "", sym)
    if (inside && !(sym in seen)) { seen[sym] = 1; order[++nsyms] = sym }
    len = "var"; split("", holds)
    next
}
!inside { next }
{
    # The length argument: the last constant moved into %edx/%rdx.
    if (match($0, /mov +\$0x[0-9a-f]+,%[er]dx$/)) {
        s = $0; sub(/.*\$0x/, "", s); sub(/,.*/, "", s); len = hex(s)
    } else if ($0 ~ /,%[er]dx$/ || $0 ~ /,%dl$/) {
        len = "var"
    }
    # A register loaded with the address of memcpy, for `call *%reg`.
    if ($0 ~ /mov .*\(%rip\),%r[a-z0-9]+ .*<mem(cpy|move)[@>]/) {
        r = $0; sub(/.*\(%rip\),/, "", r); sub(/ .*/, "", r); holds[r] = 1
    } else if (match($0, /,%r[a-z0-9]+$/)) {
        delete holds[substr($0, RSTART + 1)]
    }
    if ($0 ~ /call .*<mem(cpy|move)[@>]/) {
        hit = 1
    } else if ($0 ~ /call +\*%r[a-z0-9]+$/) {
        r = $0; sub(/.*\*/, "", r); hit = (r in holds)
    } else {
        hit = 0
    }
    if (hit) { n[sym, len]++; lens[len] = 1; total++; if (len == packet) sized++ }
    if ($0 ~ /call /) len = "var"
}
END {
    printf "%-78s %8s %6s\n", "packet-path function", "bytes", "calls"
    for (i = 1; i <= nsyms; i++) {
        sym = order[i]; any = 0
        for (l in lens) if ((sym, l) in n) {
            printf "%-78s %8s %6d%s\n", sym, l, n[sym, l], (l == packet ? "   <- a whole Packet" : "")
            any = 1
        }
        if (!any) printf "%-78s %8s %6d\n", sym, "-", 0
    }
    printf "\n%d packet-path functions, %d memcpy/memmove calls, %d of them of %d bytes (size_of::<Packet>())\n", \
        nsyms, total, sized, packet
    if (nsyms == 0) print "no packet-path function found: is this a release build of planp_perf with symbols?"
}'
