"""Fixed-cell B+tree over the buffer pool, keyed by byte strings.

Layout (page size P, header 16 bytes):
    byte 0        node type: 1 leaf, 2 inner
    bytes 2..3    cell count (u16 LE)
    bytes 4..11   leaf: right-sibling PID (i64 LE, -1 none); inner: leftmost child
    leaf cells    stride 196: klen u16, key[64], vlen u16, value[128]
    inner cells   stride 74:  klen u16, key[64], child i64

Readers descend with optimistic page reads and parse defensively (a torn page
may yield nonsense but never an exception); a read is only trusted after the
pool validates it.  Splits move keys strictly rightward along the leaf sibling
chain and nodes are never merged or freed, so a reader that was routed by a
stale parent can always recover by hopping right.  Writers use top-down
exclusive lock coupling with preemptive splits, so a parent always has room
for the separator a child split posts into it.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ConfigError
from .pool import BufferPool

LEAF = 1
INNER = 2
HDR = 16
KEY_MAX = 64
VAL_MAX = 128
LEAF_STRIDE = 2 + KEY_MAX + 2 + VAL_MAX
INNER_STRIDE = 2 + KEY_MAX + 8

_RETRY = object()


def _u16(view: np.ndarray, off: int) -> int:
    return int(view[off]) | (int(view[off + 1]) << 8)


def _put_u16(view: np.ndarray, off: int, x: int) -> None:
    view[off] = x & 0xFF
    view[off + 1] = (x >> 8) & 0xFF


def _i64(view: np.ndarray, off: int) -> int:
    return int.from_bytes(bytes(view[off:off + 8]), "little", signed=True)


def _put_i64(view: np.ndarray, off: int, x: int) -> None:
    view[off:off + 8] = np.frombuffer(x.to_bytes(8, "little", signed=True),
                                      dtype=np.uint8)


def _put_bytes(view: np.ndarray, off: int, data: bytes) -> None:
    view[off:off + len(data)] = np.frombuffer(data, dtype=np.uint8)


class BTree:
    def __init__(self, pool: BufferPool, root_pid: int = 0, init: bool = True):
        self.pool = pool
        self.root_pid = root_pid
        ps = pool.topology.page_size_bytes
        self.leaf_cap = (ps - HDR) // LEAF_STRIDE
        self.inner_cap = (ps - HDR) // INNER_STRIDE
        if self.leaf_cap < 2 or self.inner_cap < 3:
            raise ConfigError(f"page size {ps} too small for the cell layout")
        self._alloc_lock = threading.Lock()
        self._next_pid = root_pid + 1
        if init:
            with pool.fix(root_pid, exclusive=True) as h:
                self._format_leaf(h.data, sibling=-1)
                h.mark_dirty()

    # -- page formatting -------------------------------------------------

    def _format_leaf(self, view: np.ndarray, sibling: int) -> None:
        view[:HDR] = 0
        view[0] = LEAF
        _put_i64(view, 4, sibling)

    def _format_inner(self, view: np.ndarray, leftmost: int) -> None:
        view[:HDR] = 0
        view[0] = INNER
        _put_i64(view, 4, leftmost)

    def _alloc_pid(self) -> int:
        with self._alloc_lock:
            pid = self._next_pid
            self._next_pid += 1
        if pid >= self.pool.topology.slots:
            raise ConfigError("btree ran out of page slots")
        return pid

    # -- defensive parsing (safe on torn bytes) --------------------------

    def _leaf_key(self, view, i: int) -> bytes | None:
        off = HDR + i * LEAF_STRIDE
        klen = _u16(view, off)
        if not 1 <= klen <= KEY_MAX:
            return None
        return bytes(view[off + 2:off + 2 + klen])

    def _leaf_value(self, view, i: int) -> bytes | None:
        off = HDR + i * LEAF_STRIDE + 2 + KEY_MAX
        vlen = _u16(view, off)
        if vlen > VAL_MAX:
            return None
        return bytes(view[off + 2:off + 2 + vlen])

    def _inner_key(self, view, i: int) -> bytes | None:
        off = HDR + i * INNER_STRIDE
        klen = _u16(view, off)
        if not 1 <= klen <= KEY_MAX:
            return None
        return bytes(view[off + 2:off + 2 + klen])

    def _child(self, view, i: int) -> int:
        """Child pid at child index i (0 = leftmost)."""
        if i == 0:
            return _i64(view, 4)
        off = HDR + (i - 1) * INNER_STRIDE + 2 + KEY_MAX
        return _i64(view, off)

    def _route(self, view, key: bytes) -> int | None:
        """Child pid covering `key` in an inner node, or None on bad bytes."""
        n = min(_u16(view, 2), self.inner_cap)
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            k = self._inner_key(view, mid)
            if k is None:
                return None
            if k <= key:
                lo = mid + 1
            else:
                hi = mid
        child = self._child(view, lo)
        if not 0 <= child < self.pool.topology.slots:
            return None
        return child

    def _leaf_search(self, view, key: bytes, n: int) -> tuple[int, bool]:
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            k = self._leaf_key(view, mid)
            if k is None:
                return lo, False
            if k < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < n and self._leaf_key(view, lo) == key:
            return lo, True
        return lo, False

    # -- lookup ----------------------------------------------------------

    def lookup(self, key: bytes) -> bytes | None:
        key = bytes(key)
        for _ in range(32):
            out = self._descend_optimistic(key)
            if out is not _RETRY:
                return out
        return self._lookup_pessimistic(key)

    def _probe(self, view, key: bytes):
        t = int(view[0])
        if t == INNER:
            child = self._route(view, key)
            return _RETRY if child is None else ("child", child)
        if t == LEAF:
            n = min(_u16(view, 2), self.leaf_cap)
            i, found = self._leaf_search(view, key, n)
            if found:
                return ("hit", self._leaf_value(view, i))
            if n > 0:
                last = self._leaf_key(view, n - 1)
                sib = _i64(view, 4)
                if last is not None and key > last and 0 <= sib < self.pool.topology.slots:
                    return ("sib", sib)
            return ("miss", None)
        return _RETRY

    def _descend_optimistic(self, key: bytes):
        pid = self.root_pid
        for _ in range(64):
            out = self.pool.optimistic_read(pid, lambda v: self._probe(v, key))
            if out is _RETRY:
                return _RETRY
            kind, payload = out
            if kind == "child" or kind == "sib":
                pid = payload
                continue
            if kind == "hit":
                return payload
            return None
        return _RETRY

    def _lookup_pessimistic(self, key: bytes) -> bytes | None:
        h = self.pool.fix(self.root_pid, exclusive=False)
        try:
            hops = 0
            while True:
                out = self._probe(h.data, key)
                assert out is not _RETRY, "torn read under a shared lock"
                kind, payload = out
                if kind == "hit":
                    return payload
                if kind == "miss":
                    return None
                # Lock the next page before releasing the current one.
                nxt = self.pool.fix(payload, exclusive=False)
                self.pool.unfix(h)
                h = nxt
                hops += 1
                assert hops < 10_000, "runaway descent"
        finally:
            self.pool.unfix(h)

    # -- insert ----------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite; fixed cells make overwrite always in place."""
        key = bytes(key)
        value = bytes(value)
        if not 1 <= len(key) <= KEY_MAX:
            raise ConfigError(f"key length {len(key)} not in 1..{KEY_MAX}")
        if len(value) > VAL_MAX:
            raise ConfigError(f"value length {len(value)} exceeds {VAL_MAX}")
        h = self.pool.fix(self.root_pid, exclusive=True)
        ch = None
        try:
            if self._node_full(h.data) and not self._overwrite_hit(h.data, key):
                self._split_root(h)
            while int(h.data[0]) == INNER:
                child_pid = self._route(h.data, key)
                ch = self.pool.fix(child_pid, exclusive=True)
                if self._node_full(ch.data) and not self._overwrite_hit(ch.data, key):
                    self._split_child(h, ch, child_pid)
                    ch = None
                    continue  # re-route from the (still locked) parent
                self.pool.unfix(h)
                h, ch = ch, None
            self._leaf_insert(h, key, value)
        finally:
            # A split that runs out of page slots raises with both held.
            if ch is not None:
                self.pool.unfix(ch)
            self.pool.unfix(h)

    def _overwrite_hit(self, view, key: bytes) -> bool:
        """True for a full leaf that already holds `key`: overwrites go in
        place, so such a leaf needs no split."""
        if int(view[0]) != LEAF:
            return False
        _, found = self._leaf_search(view, key, _u16(view, 2))
        return found

    def _node_full(self, view) -> bool:
        n = _u16(view, 2)
        cap = self.leaf_cap if int(view[0]) == LEAF else self.inner_cap
        return n >= cap

    def _leaf_insert(self, h, key: bytes, value: bytes) -> None:
        view = h.data
        n = _u16(view, 2)
        i, found = self._leaf_search(view, key, n)
        off = HDR + i * LEAF_STRIDE
        if not found:
            if i < n:  # shift tail right one stride (staged copy, slices overlap)
                a, b = HDR + i * LEAF_STRIDE, HDR + n * LEAF_STRIDE
                tail = view[a:b].copy()
                view[a + LEAF_STRIDE:b + LEAF_STRIDE] = tail
            _put_u16(view, 2, n + 1)
        view[off:off + LEAF_STRIDE] = 0
        _put_u16(view, off, len(key))
        _put_bytes(view, off + 2, key)
        _put_u16(view, off + 2 + KEY_MAX, len(value))
        if value:
            _put_bytes(view, off + 2 + KEY_MAX + 2, value)
        h.mark_dirty()

    def _inner_insert(self, view, sep: bytes, child: int) -> None:
        n = _u16(view, 2)
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            if self._inner_key(view, mid) <= sep:
                lo = mid + 1
            else:
                hi = mid
        off = HDR + lo * INNER_STRIDE
        if lo < n:
            a, b = off, HDR + n * INNER_STRIDE
            tail = view[a:b].copy()
            view[a + INNER_STRIDE:b + INNER_STRIDE] = tail
        view[off:off + INNER_STRIDE] = 0
        _put_u16(view, off, len(sep))
        _put_bytes(view, off + 2, sep)
        _put_i64(view, off + 2 + KEY_MAX, child)
        _put_u16(view, 2, n + 1)

    def _split_child(self, hp, hc, child_pid: int) -> None:
        """Split the full child `hc` under its locked parent `hp`, then
        release both child halves.  The caller re-routes from the parent."""
        right_pid = self._alloc_pid()
        hr = self.pool.fix(right_pid, exclusive=True)
        sep = self._split_node(hc.data, hr.data, right_pid)
        hc.mark_dirty()
        hr.mark_dirty()
        self._inner_insert(hp.data, sep, right_pid)
        hp.mark_dirty()
        self.pool.unfix(hr)
        self.pool.unfix(hc)

    def _split_node(self, left, right, right_pid: int) -> bytes:
        """Move the upper half of `left` into the fresh page `right`;
        returns the separator key to post into the parent."""
        if int(left[0]) == LEAF:
            n = _u16(left, 2)
            mid = n // 2
            self._format_leaf(right, sibling=_i64(left, 4))
            a = HDR + mid * LEAF_STRIDE
            b = HDR + n * LEAF_STRIDE
            right[HDR:HDR + (b - a)] = left[a:b]
            _put_u16(right, 2, n - mid)
            _put_u16(left, 2, mid)
            _put_i64(left, 4, right_pid)
            return self._leaf_key(right, 0)
        n = _u16(left, 2)
        mid = n // 2
        # Children c0..cn, separators s1..sn: promote s_{mid+1}; the right
        # node takes its child as leftmost plus everything after it.
        sep = self._inner_key(left, mid)
        self._format_inner(right, leftmost=self._child(left, mid + 1))
        a = HDR + (mid + 1) * INNER_STRIDE
        b = HDR + n * INNER_STRIDE
        right[HDR:HDR + (b - a)] = left[a:b]
        _put_u16(right, 2, n - mid - 1)
        _put_u16(left, 2, mid)
        return sep

    def _split_root(self, hroot) -> None:
        """Copy both halves of the root out to fresh pages; the root page
        itself becomes a two-child inner node, so its PID never changes."""
        left_pid = self._alloc_pid()
        right_pid = self._alloc_pid()
        with self.pool.fix(left_pid, exclusive=True) as hl, \
                self.pool.fix(right_pid, exclusive=True) as hr:
            root = hroot.data
            hl.data[:] = root
            sep = self._split_node(hl.data, hr.data, right_pid)
            self._format_inner(root, leftmost=left_pid)
            self._inner_insert(root, sep, right_pid)
            hroot.mark_dirty()
            hl.mark_dirty()
            hr.mark_dirty()

    # -- scan ------------------------------------------------------------

    def scan(self, from_key: bytes, limit: int) -> list[tuple[bytes, bytes]]:
        """Up to `limit` (key, value) pairs with key >= from_key, in order."""
        from_key = bytes(from_key)
        if limit <= 0:
            return []
        for _ in range(32):
            out = self._scan_once(from_key, limit)
            if out is not _RETRY:
                return out
        raise ConfigError("scan could not stabilize")  # pragma: no cover

    def _probe_scan(self, view, key: bytes):
        t = int(view[0])
        if t == INNER:
            child = self._route(view, key)
            return _RETRY if child is None else ("child", child)
        if t == LEAF:
            n = min(_u16(view, 2), self.leaf_cap)
            pairs = []
            for i in range(n):
                k = self._leaf_key(view, i)
                v = self._leaf_value(view, i)
                if k is None or v is None:
                    return _RETRY
                pairs.append((k, v))
            return ("page", pairs, _i64(view, 4))
        return _RETRY

    def _scan_once(self, from_key: bytes, limit: int):
        pid = self.root_pid
        for _ in range(64):
            out = self.pool.optimistic_read(pid, lambda v: self._probe_scan(v, from_key))
            if out is _RETRY:
                return _RETRY
            if out[0] == "child":
                pid = out[1]
                continue
            break
        else:
            return _RETRY
        results: list[tuple[bytes, bytes]] = []
        _, pairs, sib = out
        while True:
            for k, v in pairs:
                if k >= from_key and (not results or k > results[-1][0]):
                    results.append((k, v))
                    if len(results) >= limit:
                        return results
            if sib < 0:
                return results
            out = self.pool.optimistic_read(pid := sib,
                                            lambda v: self._probe_scan(v, from_key))
            if out is _RETRY or out[0] != "page":
                return _RETRY
            _, pairs, sib = out

    # -- bulk load -------------------------------------------------------

    def bulk_load(self, keys: list[bytes], values: list[bytes],
                  fill: int | None = None) -> None:
        """Build the tree from sorted unique keys (tree must be empty).

        Packs `fill` records per leaf (default: full leaves), builds inner
        levels bottom-up, and finally copies the top node into the root PID.
        """
        if len(keys) != len(values):
            raise ConfigError("keys and values differ in length")
        if not keys:
            return
        fill = self.leaf_cap if fill is None else fill
        if not 1 <= fill <= self.leaf_cap:
            raise ConfigError(f"fill {fill} not in 1..{self.leaf_cap}")
        pool = self.pool
        # Leaves, chained left to right.
        pids: list[int] = []
        seps: list[bytes] = []
        for start in range(0, len(keys), fill):
            pids.append(self._alloc_pid())
            seps.append(bytes(keys[start]))
        for idx, start in enumerate(range(0, len(keys), fill)):
            chunk = range(start, min(start + fill, len(keys)))
            sib = pids[idx + 1] if idx + 1 < len(pids) else -1
            with pool.fix(pids[idx], exclusive=True) as h:
                view = h.data
                self._format_leaf(view, sibling=sib)
                _put_u16(view, 2, len(chunk))
                for i, j in enumerate(chunk):
                    off = HDR + i * LEAF_STRIDE
                    key, value = bytes(keys[j]), bytes(values[j])
                    _put_u16(view, off, len(key))
                    _put_bytes(view, off + 2, key)
                    _put_u16(view, off + 2 + KEY_MAX, len(value))
                    if value:
                        _put_bytes(view, off + 2 + KEY_MAX + 2, value)
                h.mark_dirty()
        self._build_upper(pids, seps)

    def _build_upper(self, pids: list[int], seps: list[bytes]) -> None:
        """Build inner levels over freshly written leaves `pids` (with
        `seps[i]` = first key of leaf i), then install the top node as root."""
        pool = self.pool
        while len(pids) > 1:
            up_pids: list[int] = []
            up_seps: list[bytes] = []
            fan = self.inner_cap + 1  # children per inner node
            for start in range(0, len(pids), fan):
                node_pid = self._alloc_pid()
                group = pids[start:start + fan]
                with pool.fix(node_pid, exclusive=True) as h:
                    view = h.data
                    self._format_inner(view, leftmost=group[0])
                    for i, child in enumerate(group[1:]):
                        off = HDR + i * INNER_STRIDE
                        sep = seps[start + 1 + i]
                        _put_u16(view, off, len(sep))
                        _put_bytes(view, off + 2, sep)
                        _put_i64(view, off + 2 + KEY_MAX, child)
                    _put_u16(view, 2, len(group) - 1)
                    h.mark_dirty()
                up_pids.append(node_pid)
                up_seps.append(seps[start])
            pids, seps = up_pids, up_seps
        with pool.fix(pids[0], exclusive=True) as top, \
                pool.fix(self.root_pid, exclusive=True) as root:
            root.data[:] = top.data
            root.mark_dirty()
