"""Fixed-cell B+tree over the buffer pool, keyed by byte strings.

Layout (page size P, header 16 bytes):
    byte 0        node type: 1 leaf, 2 inner
    bytes 2..3    cell count (u16 LE)
    bytes 4..11   leaf: right-sibling PID (i64 LE, -1 none); inner: leftmost child
    leaf cells    stride 196: klen u16, key[64], vlen u16, value[128]
    inner cells   stride 74:  klen u16, key[64], child i64

Nodes are parsed from one immutable `bytes` snapshot of the page
(`ndarray.tobytes()`) with precompiled `struct` formats and plain slices;
writers parse a snapshot of the page they hold locked and write each cell
with one `pack_into`.  Readers descend with optimistic page reads whose
reader only takes the snapshot, so every parse runs after the pool has
validated it.  A validated snapshot is never torn, because every write to
a node (creating the root, a leaf insert, both splits, a bulk load) happens
under an exclusive fix that marks the page dirty, and the dirty unlock
bumps the version that validation checks.  Splits move keys strictly
rightward along the leaf sibling chain and nodes are never merged or freed,
so a reader that was routed by a stale parent can always recover by
hopping right.  An overwrite descends optimistically and locks only the
leaf, which is valid if the leaf still holds the key.  Other writes use
top-down exclusive lock coupling with preemptive splits, so a parent
always has room for the separator a child split posts into it.

Descents decode each inner node once per page version.  The tree keeps one
entry per inner node, `pid -> (stamp, separators, children)`, where the
stamp is the low 56 bits of the page's state word: its tier and version.
A descent's reader loads the word itself and returns the entry, without
touching the page bytes, while the stamp still matches; otherwise it copies
the page, and the copy is decoded and stored under its stamp only after
the pool has validated the read.  This is sound because the reader loads
its word between the pool's two loads, validation accepts only an
unchanged version, and a tier never changes without a version bump, so a
validated read's stamp is the stamp of the bytes it read.  Every write to
a node ends with a dirty unlock, and every migration (SET_TIER) and
eviction (EVICT) bumps the version too, so a stale decode never matches
again.  Leaves are not cached."""

from __future__ import annotations

import struct
from bisect import bisect_right

import numpy as np

from .errors import ConfigError
from .pool import BufferPool
from .state_word import _LOW56

LEAF = 1
INNER = 2
KEY_MAX = 64
VAL_MAX = 128

_HEAD = struct.Struct("<BxHq4x")  # node type, cell count, sibling or leftmost
_LEAF_CELL = struct.Struct(f"<H{KEY_MAX}sH{VAL_MAX}s")  # klen, key, vlen, value
_INNER_CELL = struct.Struct(f"<H{KEY_MAX}sq")           # klen, key, child
_U16 = struct.Struct("<H")
_u16 = _U16.unpack_from
_i64 = struct.Struct("<q").unpack_from

HDR = _HEAD.size
LEAF_STRIDE = _LEAF_CELL.size
INNER_STRIDE = _INNER_CELL.size

# -- parsing a page snapshot ------------------------------------------------
#
# `page` is always `bytes`: slices of a numpy view compare element by
# element, so `view[a:b] <= key` would not be a byte-string comparison.

def _leaf_key(page: bytes, i: int) -> bytes:
    off = HDR + i * LEAF_STRIDE
    return page[off + 2:off + 2 + _u16(page, off)[0]]


def _leaf_value(page: bytes, i: int) -> bytes:
    off = HDR + i * LEAF_STRIDE + 2 + KEY_MAX
    return page[off + 2:off + 2 + _u16(page, off)[0]]


def _inner_key(page: bytes, i: int) -> bytes:
    off = HDR + i * INNER_STRIDE
    return page[off + 2:off + 2 + _u16(page, off)[0]]


def _child(page: bytes, i: int) -> int:
    """Child pid at child index i (0 = leftmost)."""
    if i == 0:
        return _i64(page, 4)[0]
    return _i64(page, HDR + (i - 1) * INNER_STRIDE + 2 + KEY_MAX)[0]


def _leaf_search(page: bytes, key: bytes) -> tuple[int, bool]:
    """(first index whose key is >= `key`, whether it equals `key`)."""
    lo = 0
    hi = n = _u16(page, 2)[0]
    while lo < hi:
        mid = (lo + hi) >> 1
        off = HDR + mid * LEAF_STRIDE
        if page[off + 2:off + 2 + _u16(page, off)[0]] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo, lo < n and _leaf_key(page, lo) == key


def _inner_search(page: bytes, key: bytes) -> int:
    """Number of separators that are <= `key`, which is the index of the
    child covering it."""
    lo, hi = 0, _u16(page, 2)[0]
    while lo < hi:
        mid = (lo + hi) >> 1
        off = HDR + mid * INNER_STRIDE
        if page[off + 2:off + 2 + _u16(page, off)[0]] <= key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _decode_inner(page: bytes) -> tuple[list[bytes], list[int]]:
    """(separators, children) of an inner node, for `bisect_right` routing:
    child `bisect_right(separators, key)` covers `key`."""
    _, n, leftmost = _HEAD.unpack_from(page)
    seps: list[bytes] = []
    children = [leftmost]
    for klen, k, child in _INNER_CELL.iter_unpack(page[HDR:HDR + n * INNER_STRIDE]):
        seps.append(k[:klen])
        children.append(child)
    return seps, children


def _route(page: bytes, key: bytes) -> int:
    """Child pid covering `key` in an inner node."""
    return _child(page, _inner_search(page, key))


def _check_sizes(klen: int, vlen: int) -> None:
    if not 1 <= klen <= KEY_MAX:
        raise ConfigError(f"key length {klen} not in 1..{KEY_MAX}")
    if vlen > VAL_MAX:
        raise ConfigError(f"value length {vlen} exceeds {VAL_MAX}")


def _snapshot(view: np.ndarray) -> bytes:
    """A page copy for an optimistic reader: parsing waits for validation."""
    return view.tobytes()


def _put_bytes(view: np.ndarray, off: int, data: bytes) -> None:
    struct.pack_into(f"{len(data)}s", view, off, data)


class BTree:
    def __init__(self, pool: BufferPool):
        self.pool = pool
        ps = pool.topology.page_size_bytes
        self.leaf_cap = (ps - HDR) // LEAF_STRIDE
        self.inner_cap = (ps - HDR) // INNER_STRIDE
        if self.leaf_cap < 2 or self.inner_cap < 3:
            raise ConfigError(f"page size {ps} too small for the cell layout")
        self.root_pid = pool.allocate_pid()
        # Decoded inner nodes, pid -> (stamp, separators, children); see
        # the module docstring and `_leaf`.
        self._inner: dict[int, tuple[int, list[bytes], list[int]]] = {}
        with pool.fix(self.root_pid, exclusive=True) as h:
            _HEAD.pack_into(h.data, 0, LEAF, 0, -1)
            h.mark_dirty()

    def _leaf(self, key: bytes) -> tuple[int, bytes]:
        """(pid, validated bytes) of the leaf whose range covers `key`.

        Inner nodes route through the decode cache.  The reader loads the
        page's state word and returns the cached entry, without reading the
        page, while the entry's stamp (tier and version bits) matches;
        otherwise it returns (stamp, snapshot), which is decoded and cached
        only after `optimistic_read` has validated it.  A validated read's
        stamp is the stamp of the bytes it read, and each write, migration
        and eviction of a node bumps its version, so a stale entry is never
        matched again (see the module docstring).

        A parent read before a split may route to a leaf whose upper keys
        have moved right; hop right along the sibling chain then.  Each step
        goes one level down or one leaf right and pages are never freed, so
        the walk ends."""
        pool = self.pool
        read = pool.optimistic_read
        load = pool.state.load
        cache = self._inner
        pid = self.root_pid

        def reader(view):
            stamp = load(pid) & _LOW56  # the tier and version bits
            hit = cache.get(pid)
            if hit is not None and hit[0] == stamp:
                return hit
            return stamp, _snapshot(view)

        while True:
            got = read(pid, reader)
            if len(got) == 2:  # (stamp, snapshot), not a cached entry
                stamp, page = got
                if page[0] != INNER:
                    _, n, sib = _HEAD.unpack_from(page)
                    if n and sib >= 0 and key > _leaf_key(page, n - 1):
                        pid = sib
                        continue
                    return pid, page
                got = cache[pid] = (stamp, *_decode_inner(page))
            pid = got[2][bisect_right(got[1], key)]

    # -- lookup ----------------------------------------------------------

    def lookup(self, key: bytes) -> bytes | None:
        key = bytes(key)
        page = self._leaf(key)[1]
        i, found = _leaf_search(page, key)
        return _leaf_value(page, i) if found else None

    # -- insert ----------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite; fixed cells make overwrite always in place."""
        key = bytes(key)
        value = bytes(value)
        _check_sizes(len(key), len(value))
        # An overwrite locks only its leaf: a key lives in exactly one leaf,
        # so finding it there under the lock is the whole validation.
        pid, page = self._leaf(key)
        if _leaf_search(page, key)[1]:
            with self.pool.fix(pid, exclusive=True) as h:
                page = h.data.tobytes()
                if page[0] == LEAF and _leaf_search(page, key)[1]:
                    self._leaf_insert(h, page, key, value)
                    return
        h = self.pool.fix(self.root_pid, exclusive=True)
        ch = None
        try:
            page = h.data.tobytes()
            if self._node_full(page):
                self._split_root(h)
                page = h.data.tobytes()
            while page[0] == INNER:
                child_pid = _route(page, key)
                ch = self.pool.fix(child_pid, exclusive=True)
                cpage = ch.data.tobytes()
                if self._node_full(cpage):
                    self._split_child(h, ch, child_pid)
                    ch = None
                    page = h.data.tobytes()
                    continue  # re-route from the (still locked) parent
                self.pool.unfix(h)
                h, ch, page = ch, None, cpage
            self._leaf_insert(h, page, key, value)
        finally:
            # A split that runs out of page slots raises with both held.
            if ch is not None:
                self.pool.unfix(ch)
            self.pool.unfix(h)

    def _node_full(self, page: bytes) -> bool:
        cap = self.leaf_cap if page[0] == LEAF else self.inner_cap
        return _u16(page, 2)[0] >= cap

    def _leaf_insert(self, h, page: bytes, key: bytes, value: bytes) -> None:
        """Write (key, value) into the locked leaf `h`, whose bytes are `page`."""
        view = h.data
        n = _u16(page, 2)[0]
        i, found = _leaf_search(page, key)
        off = HDR + i * LEAF_STRIDE
        if not found:
            if i < n:  # shift the tail right one stride
                _put_bytes(view, off + LEAF_STRIDE, page[off:HDR + n * LEAF_STRIDE])
            _U16.pack_into(view, 2, n + 1)
        _LEAF_CELL.pack_into(view, off, len(key), key, len(value), value)
        h.mark_dirty()

    def _inner_insert(self, view: np.ndarray, sep: bytes, child: int) -> None:
        page = view.tobytes()
        n = _u16(page, 2)[0]
        i = _inner_search(page, sep)
        off = HDR + i * INNER_STRIDE
        if i < n:
            _put_bytes(view, off + INNER_STRIDE, page[off:HDR + n * INNER_STRIDE])
        _INNER_CELL.pack_into(view, off, len(sep), sep, child)
        _U16.pack_into(view, 2, n + 1)

    def _split_child(self, hp, hc, child_pid: int) -> None:
        """Split the full child `hc` under its locked parent `hp`, then
        release both child halves.  The caller re-routes from the parent."""
        right_pid = self.pool.allocate_pid()
        hr = self.pool.fix(right_pid, exclusive=True)
        sep = self._split_node(hc.data, hr.data, right_pid)
        hc.mark_dirty()
        hr.mark_dirty()
        self._inner_insert(hp.data, sep, right_pid)
        hp.mark_dirty()
        self.pool.unfix(hr)
        self.pool.unfix(hc)

    def _split_node(self, left: np.ndarray, right: np.ndarray,
                    right_pid: int) -> bytes:
        """Move the upper half of `left` into the fresh page `right`;
        returns the separator key to post into the parent."""
        page = left.tobytes()
        t, n, link = _HEAD.unpack_from(page)
        mid = n // 2
        if t == LEAF:
            a = HDR + mid * LEAF_STRIDE
            _HEAD.pack_into(right, 0, LEAF, n - mid, link)
            _put_bytes(right, HDR, page[a:HDR + n * LEAF_STRIDE])
            _HEAD.pack_into(left, 0, LEAF, mid, right_pid)
            return _leaf_key(page, mid)
        # Children c0..cn, separators s1..sn: promote s_{mid+1}; the right
        # node takes its child as leftmost plus everything after it.
        a = HDR + (mid + 1) * INNER_STRIDE
        _HEAD.pack_into(right, 0, INNER, n - mid - 1, _child(page, mid + 1))
        _put_bytes(right, HDR, page[a:HDR + n * INNER_STRIDE])
        _U16.pack_into(left, 2, mid)
        return _inner_key(page, mid)

    def _split_root(self, hroot) -> None:
        """Copy both halves of the root out to fresh pages; the root page
        itself becomes a two-child inner node, so its PID never changes."""
        left_pid = self.pool.allocate_pid()
        right_pid = self.pool.allocate_pid()
        with self.pool.fix(left_pid, exclusive=True) as hl, \
                self.pool.fix(right_pid, exclusive=True) as hr:
            root = hroot.data
            hl.data[:] = root
            sep = self._split_node(hl.data, hr.data, right_pid)
            _HEAD.pack_into(root, 0, INNER, 0, left_pid)
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
        page = self._leaf(from_key)[1]
        results: list[tuple[bytes, bytes]] = []
        # A sibling only ever holds keys above every key of the snapshot
        # that linked to it, since splits move keys rightward: no key
        # comes back twice, even if the leaf split after it was read.
        while True:
            _, n, sib = _HEAD.unpack_from(page)
            for klen, k, vlen, v in _LEAF_CELL.iter_unpack(
                    page[HDR:HDR + n * LEAF_STRIDE]):
                k = k[:klen]
                if k >= from_key:
                    results.append((k, v[:vlen]))
                    if len(results) >= limit:
                        return results
            if sib < 0:
                return results
            page = self.pool.optimistic_read(sib, _snapshot)

    # -- bulk load -------------------------------------------------------

    def bulk_load(self, keys: list[bytes], values: list[bytes],
                  fill: int | None = None) -> None:
        """Build the tree from sorted unique keys; refuses a tree that is not empty.

        Packs `fill` records per leaf (default: full leaves), builds inner
        levels bottom-up, and finally copies the top node into the root PID.
        """
        if len(keys) != len(values):
            raise ConfigError("keys and values differ in length")
        root = self.pool.optimistic_read(self.root_pid, _snapshot)
        if _HEAD.unpack_from(root)[:2] != (LEAF, 0):
            raise ConfigError("bulk_load needs an empty tree")
        if not keys:
            return
        _check_sizes(min(map(len, keys)), 0)
        _check_sizes(max(map(len, keys)), max(map(len, values)))
        fill = self.leaf_cap if fill is None else fill
        if not 1 <= fill <= self.leaf_cap:
            raise ConfigError(f"fill {fill} not in 1..{self.leaf_cap}")
        pool = self.pool
        # Leaves, chained left to right.
        pids: list[int] = []
        seps: list[bytes] = []
        for start in range(0, len(keys), fill):
            pids.append(self.pool.allocate_pid())
            seps.append(bytes(keys[start]))
        for idx, start in enumerate(range(0, len(keys), fill)):
            ks, vs = keys[start:start + fill], values[start:start + fill]
            sib = pids[idx + 1] if idx + 1 < len(pids) else -1
            with pool.fix(pids[idx], exclusive=True) as h:
                view = h.data
                _HEAD.pack_into(view, 0, LEAF, len(ks), sib)
                _put_bytes(view, HDR, b"".join(
                    [_LEAF_CELL.pack(len(k), k, len(v), v) for k, v in zip(ks, vs)]))
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
                node_pid = self.pool.allocate_pid()
                group = pids[start:start + fan]
                with pool.fix(node_pid, exclusive=True) as h:
                    view = h.data
                    _HEAD.pack_into(view, 0, INNER, len(group) - 1, group[0])
                    for i, child in enumerate(group[1:]):
                        sep = seps[start + 1 + i]
                        _INNER_CELL.pack_into(view, HDR + i * INNER_STRIDE,
                                              len(sep), sep, child)
                    h.mark_dirty()
                up_pids.append(node_pid)
                up_seps.append(seps[start])
            pids, seps = up_pids, up_seps
        with pool.fix(pids[0], exclusive=True) as top, \
                pool.fix(self.root_pid, exclusive=True) as root:
            root.data[:] = top.data
            root.mark_dirty()
