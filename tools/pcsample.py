#!/usr/bin/env python3
"""Sample a command's program counters and attribute them to code.

    python3 tools/pcsample.py [--lib PATH] [--out DIR] -- COMMAND [ARGS...]

Runs COMMAND with the sampler library (CMake target `pcsample`, built
from tools/pcsample.cc) preloaded: it records the interrupted PC at a
fixed 1 kHz of process CPU time and writes one file per process into
DIR (a fresh temporary directory unless --out is given).

Each PC is mapped to the object it falls in through the process's
/proc/self/maps (pc - mapping start + file offset, then the ELF
program headers give the link-time address), and objects outside
/usr and /lib are symbolized with one batched `addr2line -f -C -i` per
object. A sample goes to its innermost inlined frame that is not in a
/usr header, so an inlined std::min counts for the simulator function
it sits in. The report groups samples first by the frame's src/<dir>/
(other directories by their own name), then by function (top 40).

Samples in system libraries are grouped by object name and not
symbolized: their exported symbols mislead (memcpy/memset can resolve
to an unrelated neighbour). Samples that fall in no file-backed mapping,
or that addr2line cannot place at all, form the "(unresolved)" row,
which is always printed so unattributed time stays visible. The last
line gives the attributed share.
"""

import argparse
import bisect
import os
import re
import struct
import subprocess
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNRESOLVED = "(unresolved)"
SYSTEM_PREFIXES = ("/usr/", "/lib")
FUNC_ROWS = 40


def parse_dump(path):
    """@return (maps, pcs, dropped); maps = [(start, end, offset, name)]."""
    maps, pcs, dropped, section = [], [], 0, None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line in ("maps", "pcs"):
                section = line
            elif section is None and line.startswith("dropped "):
                dropped = int(line.split()[1])
            elif section == "maps":
                parts = line.split(None, 5)
                if len(parts) < 5 or "x" not in parts[1]:
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                name = parts[5] if len(parts) > 5 else ""
                maps.append((lo, hi, int(parts[2], 16), name))
            elif section == "pcs" and line:
                pcs.append(int(line, 16))
    maps.sort()
    return maps, pcs, dropped


def load_segments(path):
    """PT_LOAD (offset, vaddr, filesz) triples of an ELF64 file."""
    with open(path, "rb") as f:
        ident = f.read(64)
        if ident[:4] != b"\x7fELF" or ident[4] != 2:
            return []
        end = "<" if ident[5] == 1 else ">"
        phoff, = struct.unpack_from(end + "Q", ident, 32)
        phentsize, phnum = struct.unpack_from(end + "HH", ident, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            end + "IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def link_address(segs, file_offset):
    for off, vaddr, size in segs:
        if off <= file_offset < off + size:
            return file_offset - off + vaddr
    return None


def symbolize(path, addrs):
    """@return {addr: [(func, file), ...]} innermost frame first."""
    text = "\n".join(f"{a:x}" for a in addrs)
    r = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", path],
                       input=text, capture_output=True, text=True,
                       check=True)
    frames, cur, lines = {}, None, r.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            cur = int(lines[i], 16)
            frames[cur] = []
            i += 1
            continue
        func = lines[i]
        where = lines[i + 1] if i + 1 < len(lines) else "??:0"
        frames[cur].append((func, where.rsplit(":", 1)[0]))
        i += 2
    return frames


LAYER_RE = re.compile(r"(?:^|/)src/([^/]+)/[^/]+$")


def layer_of(source):
    m = LAYER_RE.search(source)
    if m:
        return f"src/{m.group(1)}/"
    return os.path.basename(os.path.dirname(source)) + "/"


def attribute(frames, obj_name):
    """(layer, func) of a symbolized PC, or None if nothing is known."""
    known = [(fn, src) for fn, src in frames if fn != "??" or src != "??"]
    if not known:
        return None
    for fn, src in known:
        if src != "??" and not src.startswith(SYSTEM_PREFIXES):
            return layer_of(src), fn
    # Only header or line-less frames: the object is all we can say.
    return obj_name, known[0][0]


def tally(dump_dir):
    """@return (Counter by layer, Counter by func, samples, dropped)."""
    by_layer, by_func = Counter(), Counter()
    total = dropped = 0
    segments = {}
    for entry in sorted(os.listdir(dump_dir)):
        maps, pcs, lost = parse_dump(os.path.join(dump_dir, entry))
        dropped += lost
        total += len(pcs)
        starts = [m[0] for m in maps]
        per_obj = {}
        for pc in pcs:
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i][1] or not maps[i][3]:
                by_layer[UNRESOLVED] += 1
                by_func[UNRESOLVED] += 1
                continue
            lo, _, off, name = maps[i]
            per_obj.setdefault(name, []).append(pc - lo + off)
        for name, offsets in per_obj.items():
            obj = os.path.basename(name)
            if name.startswith("[") or name.startswith(SYSTEM_PREFIXES) \
                    or not os.path.exists(name):
                by_layer[obj] += len(offsets)
                by_func[obj] += len(offsets)
                continue
            if name not in segments:
                segments[name] = load_segments(name)
            addrs = [link_address(segments[name], o) for o in offsets]
            frames = symbolize(
                name, sorted({a for a in addrs if a is not None}))
            for a in addrs:
                got = attribute(frames.get(a, []), obj)
                layer, func = got if got else (UNRESOLVED, UNRESOLVED)
                by_layer[layer] += 1
                by_func[func] += 1
    return by_layer, by_func, total, dropped


def report(counts, total, limit, heading):
    print(f"  {'share':>6} {'samples':>8}  {heading}")
    rows = [kv for kv in counts.most_common() if kv[0] != UNRESOLVED]
    shown = rows if limit is None else rows[:limit]
    for key, n in shown:
        print(f"  {100.0 * n / total:5.1f}% {n:8d}  {key}")
    if len(shown) < len(rows):
        rest = sum(n for _, n in rows[len(shown):])
        print(f"  {100.0 * rest / total:5.1f}% {rest:8d}  "
              f"({len(rows) - len(shown)} more)")
    n = counts.get(UNRESOLVED, 0)
    print(f"  {100.0 * n / total:5.1f}% {n:8d}  {UNRESOLVED}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s [--lib PATH] [--out DIR] -- COMMAND ...")
    ap.add_argument("--lib",
                    default=os.path.join(ROOT, "build", "libpcsample.so"),
                    help="sampler library (default: build/libpcsample.so)")
    ap.add_argument("--out", help="dump directory, empty or absent"
                    " (default: a temporary one)")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    a = ap.parse_args()
    command = a.command[1:] if a.command[:1] == ["--"] else a.command

    if not command:
        ap.error("give a command to run after --")
    if not os.path.exists(a.lib):
        sys.exit(f"pcsample.py: no sampler library at {a.lib}"
                 " (build the pcsample target, or pass --lib)")
    out = a.out or tempfile.mkdtemp(prefix="pcsample-")
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        sys.exit(f"pcsample.py: {out} is not empty; its dumps would"
                 " mix with this run's")
    env = dict(os.environ, PCSAMPLE_OUT=os.path.abspath(out),
               LD_PRELOAD=os.path.abspath(a.lib))
    code = subprocess.run(command, env=env).returncode
    if code != 0:
        sys.exit(f"pcsample.py: command exited with code {code}")

    by_layer, by_func, total, dropped = tally(out)
    if total == 0:
        sys.exit(f"pcsample.py: no samples in {out}")
    print(f"pcsample: {total} samples at 1 kHz of CPU"
          f" ({total / 1000.0:.2f} s), dumps in {out}"
          + (f", {dropped} dropped" if dropped else ""))
    report(by_layer, total, None, "layer or object")
    print()
    report(by_func, total, FUNC_ROWS, "innermost function or object")
    attributed = total - by_layer.get(UNRESOLVED, 0)
    print(f"attributed: {100.0 * attributed / total:.1f}%"
          f" ({attributed} of {total})")


if __name__ == "__main__":
    main()
