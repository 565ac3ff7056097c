#!/usr/bin/env python3
"""Feeds incdb_serve malformed and hostile wire input.

Usage: wire_input_test.py <path to incdb_serve> [<INCDB_SANITIZE value>]

Starts the server on an ephemeral port over a small dump and sends each
input below. It checks that every non-blank line of a bad input gets
exactly one reply, an `error ...` line; that parse errors name a line and a
column; that `ping` answers `ok pong` after each input; and that the server
exits 0 when its --runtime_s runs out. A second server, limited to 4 GB of
address space, holds a 70 000-row table and is asked for its cross product,
whose 4.9e9 rows the engine cannot index, first naively and then under
3VL: each must answer with one RESOURCE_EXHAUSTED line naming the row bound
and keep serving. A third server holds R = {(1, 2), (_0, 3)}: a
certain-probability query of R with a literal holding a null must get the
same rows on the c-table backend as on enumeration, and the server must
keep serving. Exits 0 on success, 1 on failure.
"""

import os
import random
import re
import resource
import socket
import subprocess
import sys
import tempfile

RUNTIME_S = 15
PRODUCT_RUNTIME_S = 10
LITERAL_RUNTIME_S = 5
PRODUCT_ROWS = 70000
ADDRESS_LIMIT = 4000000 * 1024  # `ulimit -v 4000000`
POSITION = re.compile(r"on line \d+, column \d+")
# C's isspace, which the server trims lines with.
SPACE = b" \t\n\r\x0b\x0c"


class Connection:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.buf = b""

    def send(self, data):
        self.sock.sendall(data)

    def line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise AssertionError("server closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode("utf-8", "replace")

    def response(self):
        """Data lines, then the terminator line."""
        data = []
        while True:
            line = self.line()
            if line.startswith("| ") or line.startswith("p "):
                data.append(line)
            else:
                return data, line

    def close(self):
        self.sock.close()


failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL:", what)


def expect_errors(conn, name, data, replies, parse_error=True):
    """Sends `data`; expects `replies` error lines, then a clean ping."""
    conn.send(data)
    for i in range(replies):
        _, term = conn.response()
        check(term.startswith("error "), f"{name}: reply {i}: {term[:200]}")
        if parse_error:
            check(term.startswith("error PARSE_ERROR ") and
                  POSITION.search(term) is not None,
                  f"{name}: reply {i} is not a positioned parse error: "
                  f"{term[:200]}")
    expect_pong(conn, name)


def expect_pong(conn, name):
    conn.send(b"ping\n")
    _, term = conn.response()
    check(term == "ok pong", f"{name}: ping after it got {term[:200]!r}")


def expect_ok(conn, name, data):
    conn.send(data)
    _, term = conn.response()
    check(term.startswith("ok"), f"{name}: {term[:200]}")
    expect_pong(conn, name)


def expect_rows(conn, name, query, rows):
    conn.send(query)
    data, term = conn.response()
    check(term.startswith("ok rows="), f"{name}: {term[:200]}")
    check(data == rows, f"{name}: rows {data} != {rows}")


def replies_for(data):
    """The replies the server owes `data`: one per non-blank line."""
    count = 0
    for line in data.split(b"\n")[:-1]:
        if line.endswith(b"\r"):
            line = line[:-1]
        if line.strip(SPACE):
            count += 1
    return count


def start_server(server, db, runtime_s, **popen_args):
    """Starts the server; returns (process, port or None)."""
    proc = subprocess.Popen(
        [server, f"--db={db}", "--port=0", f"--runtime_s={runtime_s}"],
        stdout=subprocess.PIPE, text=True, **popen_args)
    banner = proc.stdout.readline()
    match = re.search(r":(\d+)", banner)
    if match is None:
        print("FAIL: no port in", repr(banner))
        return proc, None
    return proc, int(match.group(1))


def expect_product_refused(conn, name):
    """`query T x T` fails at once: no rows, one RESOURCE_EXHAUSTED line
    naming the row bound, then a clean ping."""
    conn.send(b"query T x T\n")
    data, term = conn.response()
    check(data == [] and
          term.startswith("error RESOURCE_EXHAUSTED ") and
          "exceeds 4294967295 rows" in term,
          f"{name}: {len(data)} rows, then {term[:200]!r}")
    expect_pong(conn, f"after a {name}")


def run_product(server, sanitizer, tmp):
    """A cross product past UINT32_MAX rows costs one error line, under
    naive evaluation and under 3VL."""
    db = os.path.join(tmp, "t.txt")
    with open(db, "w") as f:
        f.write("table T(a)\n")
        f.write("".join(f"{i}\n" for i in range(PRODUCT_ROWS)))
    env = dict(os.environ)
    limit = None
    # CMake's false constants: INCDB_SANITIZE holding one is a plain build.
    plain = (sanitizer.upper() in ("", "0", "OFF", "NO", "FALSE", "N",
                                   "IGNORE", "NOTFOUND") or
             sanitizer.upper().endswith("-NOTFOUND"))
    if plain:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS,
                               (ADDRESS_LIMIT, ADDRESS_LIMIT))
    else:
        # The sanitizers reserve more address space than the limit allows;
        # cap their allocators instead.
        for var in ("ASAN_OPTIONS", "TSAN_OPTIONS"):
            env[var] = (env.get(var, "") + ":max_allocation_size_mb=4000")
    proc, port = start_server(server, db, PRODUCT_RUNTIME_S, env=env,
                              preexec_fn=limit)
    try:
        if port is None:
            failures.append("cross product server did not start")
            return
        conn = Connection(port)
        try:
            expect_product_refused(conn, "cross product")
            expect_ok(conn, "notion 3vl", b"notion 3vl\n")
            expect_product_refused(conn, "3VL cross product")
        except (AssertionError, OSError) as e:
            check(False, f"cross product: {e}")
        conn.close()
    finally:
        try:
            proc.communicate(timeout=PRODUCT_RUNTIME_S + 60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            failures.append("cross product server did not exit")
    check(proc.returncode == 0,
          f"cross product server exit status {proc.returncode}")


def run_literal_nulls(server, tmp):
    """A relation literal's null is a value on both backends: the c-table
    backend answers `R U {(_9, 99)}` as enumeration does and keeps
    serving."""
    db = os.path.join(tmp, "literal.txt")
    with open(db, "w") as f:
        f.write("table R(a, b)\n1, 2\n_0, 3\n")
    proc, port = start_server(server, db, LITERAL_RUNTIME_S)
    try:
        if port is None:
            failures.append("literal nulls: server did not start")
            return
        conn = Connection(port)
        answers = {}
        for backend in (b"enumeration", b"ctable"):
            expect_ok(conn, "backend", b"backend " + backend + b"\n")
            expect_ok(conn, "notion", b"notion certain-probability\n")
            conn.send(b"query R U {(_9, 99)}\n")
            data, term = conn.response()
            check(term.startswith("ok rows="),
                  f"literal nulls on {backend}: {term[:200]}")
            answers[backend] = data
            expect_pong(conn, f"literal nulls on {backend}")
        check(answers[b"ctable"] == answers[b"enumeration"],
              f"literal nulls: ctable {answers[b'ctable']} != "
              f"enumeration {answers[b'enumeration']}")
        check("| (_9, 99)" in answers[b"ctable"],
              f"literal nulls: (_9, 99) not certain: {answers[b'ctable']}")
        conn.close()
    finally:
        try:
            proc.communicate(timeout=LITERAL_RUNTIME_S + 60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            failures.append("literal nulls: server did not exit")
    check(proc.returncode == 0,
          f"literal nulls: server exit status {proc.returncode}")


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__)
        return 2
    server = sys.argv[1]
    sanitizer = sys.argv[2] if len(sys.argv) == 3 else "OFF"
    with tempfile.TemporaryDirectory() as tmp:
        db = os.path.join(tmp, "db.txt")
        with open(db, "w") as f:
            f.write("table R(a, b)\n1, 2\n")
        proc, port = start_server(server, db, RUNTIME_S)
        try:
            if port is None:
                return 1
            run(port)
            run_literal_nulls(server, tmp)
            run_product(server, sanitizer, tmp)
        finally:
            try:
                out, _ = proc.communicate(timeout=RUNTIME_S + 60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                failures.append("server did not exit at --runtime_s")
        check(proc.returncode == 0, f"server exit status {proc.returncode}")
    if failures:
        print(f"{len(failures)} failure(s)")
        return 1
    print("wire input test passed")
    return 0


def run(port):
    conn = Connection(port)
    expect_pong(conn, "start")
    conn.send(b"version\n")
    _, version = conn.response()

    # The value syntax of ingest rows: no wrapped ids, no clamped integers,
    # '' is a quote and a quoted string may hold a space.
    expect_errors(conn, "null id past NullId",
                  b"ingest 1\nR 2 _4294967296\n", 1)
    expect_errors(conn, "integer past int64",
                  b"ingest 1\nR 99999999999999999999 _7\n", 1)
    expect_ok(conn, "quote in a string", b"ingest 1\nR 'it''s' _8\n")
    expect_ok(conn, "space in a string", b"ingest 1\nR 'a b' 5\n")
    expect_rows(conn, "quote stored", b"query sel[#0 = 'it''s'](R)\n",
                ["| ('it''s', _8)"])
    expect_rows(conn, "space stored", b"query sel[#0 = 'a b'](R)\n",
                ["| ('a b', 5)"])
    conn.send(b"version\n")
    _, after_ingest = conn.response()

    # Numeric arguments.
    expect_errors(conn, "oversized batch", b"ingest 100001\n", 1)
    expect_errors(conn, "batch count", b"ingest x\n", 1)
    expect_errors(conn, "threads", b"threads abc\n", 1)
    expect_errors(conn, "threshold", b"threshold x\n", 1)
    expect_errors(conn, "max_worlds", b"max_worlds -5\n", 1)
    # A bad row in the middle of a batch: every row is read, none applied.
    expect_errors(conn, "bad row mid-batch",
                  b"ingest 3\nR 1 1\nR abc\nR 2 2\n", 1)

    # Query text.
    expect_errors(conn, "unterminated quote",
                  b"query sel[#0 = 'abc](R)\n", 1)
    expect_errors(conn, "1 MiB line",
                  b"query " + b"a" * (1 << 20) + b")\n", 1)

    # Binary garbage: whatever the lines are, each gets one error.
    rng = random.Random(7)
    garbage = bytes(rng.randrange(256) for _ in range(4096)) + b"\n"
    expect_errors(conn, "random bytes", garbage, replies_for(garbage),
                  parse_error=False)

    conn.send(b"version\n")
    _, unchanged = conn.response()
    check(unchanged == after_ingest,
          f"bad batches changed the version: {after_ingest} -> {unchanged}")
    check(version != after_ingest, "good batches did not publish")

    # A batch cut off by closing the socket applies nothing.
    cut = Connection(port)
    cut.send(b"ingest 3\nR 7 7\n")
    cut.close()
    fresh = Connection(port)
    expect_pong(fresh, "after a cut batch")
    fresh.send(b"version\n")
    _, after_cut = fresh.response()
    check(after_cut == after_ingest,
          f"a cut batch changed the version: {after_ingest} -> {after_cut}")
    fresh.close()
    conn.close()


if __name__ == "__main__":
    sys.exit(main())
