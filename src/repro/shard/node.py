"""Validator nodes: where one shard's documents are validated.

A node is anything that answers the serve protocol's request dicts —
the coordinator only ever speaks ``load`` (ship the schema, verify the
fingerprint round-trip) and ``check-shard`` (validate a batch of
``(doc_id, xml)`` pairs, return verdicts + merge aggregates + a metrics
export).  Two implementations:

- :class:`LocalNode` — an in-process :class:`ValidationServer` behind
  the same request/response dicts as the wire.  Zero transport cost;
  what the hypothesis parity suite runs hundreds of.
- :class:`SubprocessNode` — a real ``repro-xic serve --stdio`` child
  process speaking JSONL over its pipes.  True multi-node isolation
  (own interpreter, own memory, own caches); because the protocol is
  the serve protocol, pointing the coordinator at remote sockets later
  is a transport change, not a redesign.

Both are driven through the common :class:`ShardNode` base, which
raises :class:`~repro.errors.ReproError` on any non-``ok`` response so
coordinator code never branches on transport.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Optional

from repro.errors import ReproError

__all__ = ["LocalNode", "ShardNode", "SubprocessNode"]


class ShardNode:
    """Protocol driver shared by every node transport."""

    #: display name for spans/metrics labels
    name = "node"

    def request(self, req: dict) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        """Release the node's resources (idempotent)."""

    # -- the two operations the coordinator uses ---------------------

    def load_schema(self, name: str, text: str, root: str,
                    fingerprint: str) -> dict:
        """Ship the serialized ``DTD^C`` text and pin its identity: the
        node's compiled fingerprint must equal the coordinator's, or
        the shard would silently validate against a different schema.
        """
        response = self._checked({"op": "load", "name": name,
                                  "schema": text, "root": root})
        remote = response.get("schema", {}).get("fingerprint")
        if remote != fingerprint:
            raise ReproError(
                f"shard node {self.name!r} compiled schema {name!r} to "
                f"fingerprint {remote!r}, expected {fingerprint!r} — "
                "the schema did not survive the wire round-trip")
        return response

    def check_shard(self, schema: str,
                    pairs: "list[tuple[str, str]]",
                    engine: Optional[str] = None,
                    aggregates: bool = True) -> dict:
        """Validate one batch of ``(doc_id, xml)`` pairs on the node."""
        req: dict = {"op": "check-shard", "schema": schema,
                     "documents": [[doc_id, text]
                                   for doc_id, text in pairs],
                     "aggregates": aggregates}
        if engine is not None:
            req["engine"] = engine
        return self._checked(req)

    def _checked(self, req: dict) -> dict:
        response = self.request(req)
        if not response.get("ok"):
            raise ReproError(
                f"shard node {self.name!r} rejected "
                f"{req.get('op')!r}: "
                f"{response.get('error', response)}")
        return response

    def __enter__(self) -> "ShardNode":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalNode(ShardNode):
    """An in-process node: a private :class:`ValidationServer` spoken
    to through the exact dicts the JSONL wire would carry."""

    def __init__(self, name: str = "local"):
        from repro.server import ValidationServer

        self.name = name
        self.server = ValidationServer()

    def request(self, req: dict) -> dict:
        payload, _status = self.server.handle_request(dict(req))
        return payload


class SubprocessNode(ShardNode):
    """A ``repro-xic serve --stdio`` child process as a node.

    One JSONL request per line down stdin, one response per line back —
    the transport the CI smoke test and ``bench_shard.py`` exercise, so
    shard overhead is measured against real process isolation even on a
    single-core host.
    """

    def __init__(self, name: str = "subprocess"):
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "-q", "serve", "--stdio"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
            env=dict(os.environ))

    def request(self, req: dict) -> dict:
        if self.proc.poll() is not None:
            raise ReproError(
                f"shard node {self.name!r} exited with status "
                f"{self.proc.returncode} before the request")
        assert self.proc.stdin is not None \
            and self.proc.stdout is not None
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError as exc:  # the node died while we wrote
            raise self._died(f"{type(exc).__name__}: {exc}") from exc
        if not line:
            raise self._died("no response")
        return json.loads(line)

    def _died(self, detail: str) -> ReproError:
        """The error for a node that went away mid-request, with its
        exit status once the process has been reaped (a dying node gets
        a moment to finish exiting)."""
        try:
            status = self.proc.wait(timeout=1)
        except subprocess.TimeoutExpired:
            status = None
        return ReproError(
            f"shard node {self.name!r} closed its pipe mid-request "
            f"(exit status {status}; {detail})")

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                if self.proc.stdin is not None:
                    self.proc.stdin.close()  # EOF: clean shutdown
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait(timeout=10)
