#!/usr/bin/env bash
# Build a seed corpus for the fuzz harnesses in fuzz/.
#
# Seeds are real outputs of our own encoder and muxers — tiny elementary
# streams in several configurations, plus program-stream and transport-stream
# wrappings — followed by deterministic single-bit-flip variants of each.
# Valid-but-slightly-damaged inputs reach far deeper into the parsers than
# random bytes, which is what makes the corpus worth seeding.
#
# Usage: scripts/make_fuzz_corpus.sh [build-dir] [out-dir]
#   build-dir  cmake build tree with examples/ built   (default: build)
#   out-dir    corpus root, one subdir per harness     (default: fuzz/corpus)
set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-fuzz/corpus}"
TRANSCODE="$BUILD/examples/transcode_tool"
PSTOOL="$BUILD/examples/ps_tool"
WIRESEED="$BUILD/examples/wire_seed_tool"

for tool in "$TRANSCODE" "$PSTOOL" "$WIRESEED"; do
  if [ ! -x "$tool" ]; then
    echo "error: $tool not built (cmake --build $BUILD --target transcode_tool ps_tool wire_seed_tool)" >&2
    exit 1
  fi
done

mkdir -p "$OUT/es" "$OUT/container" "$OUT/wire" "$OUT/telemetry" \
  "$OUT/rendezvous" "$OUT/fabric"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Tiny elementary streams: one per scene kind, small frame counts so each
# seed stays a few kilobytes. transcode_tool args: scene w h frames bpp out.
i=0
for scene in moving-objects panning-texture animation localized-detail; do
  "$TRANSCODE" "$scene" 96 64 4 0.4 "$TMP/seed_$i.m2v" > /dev/null
  cp "$TMP/seed_$i.m2v" "$OUT/es/seed_${scene}.m2v"
  i=$((i + 1))
done

# Container wrappings of the first ES seed.
"$PSTOOL" mux "$TMP/seed_0.m2v" "$OUT/container/seed.mpg" > /dev/null
"$PSTOOL" tsmux "$TMP/seed_0.m2v" "$OUT/container/seed.ts" > /dev/null

# Typed protocol message bodies (one per wire message type) for fuzz_wire,
# sideband datagrams for fuzz_telemetry and fuzz_rendezvous, and fabric
# datagram sequences for fuzz_fabric.
"$WIRESEED" "$OUT"

# Deterministic bit-flip variants: flip one bit at several byte offsets
# spread over each seed. Python is only used as a portable byte editor.
flip_variants() {
  local src=$1 dst_prefix=$2
  python3 - "$src" "$dst_prefix" <<'EOF'
import sys
src, prefix = sys.argv[1], sys.argv[2]
data = bytearray(open(src, "rb").read())
n = len(data)
# Seeds too small to skip a 4-byte prefix (tiny wire bodies): flip within
# whatever is there instead.
if n < 6:
    for k in range(min(8, n * 8)):
        flipped = bytearray(data)
        flipped[k % n] ^= 1 << (k // n)
        open(f"{prefix}_flip{k}.bin", "wb").write(flipped)
    sys.exit(0)
# 8 positions spread over the file, skipping the first 4 bytes so the
# top-level start code survives and the parse goes deep.
for k in range(8):
    pos = 4 + (n - 5) * k // 8
    bit = (k * 3) % 8
    flipped = bytearray(data)
    flipped[pos] ^= 1 << bit
    open(f"{prefix}_flip{k}.bin", "wb").write(flipped)
EOF
}

for f in "$OUT"/es/*.m2v; do
  flip_variants "$f" "${f%.m2v}"
done
for f in "$OUT/container/seed.mpg" "$OUT/container/seed.ts"; do
  flip_variants "$f" "${f%.*}_$(basename "${f##*.}")"
done
for f in "$OUT"/wire/*.wire; do
  flip_variants "$f" "${f%.wire}"
done
for f in "$OUT"/telemetry/*.bin "$OUT"/rendezvous/*.bin "$OUT"/fabric/*.bin; do
  flip_variants "$f" "${f%.bin}"
done

echo "corpus written to $OUT:"
find "$OUT" -type f | wc -l | xargs echo "  files:"
du -sh "$OUT" | cut -f1 | xargs echo "  size:"
