// Package snapfile is the on-disk binary container for frozen graph
// snapshots: the CSR arrays of a graph.Snapshot plus an interned,
// columnar encoding of the categorical profiles that ride with a
// dataset. Its reason to exist is load cost at social-graph scale —
// parsing a million-node graph out of JSON takes tens of seconds and
// doubles peak memory, while Open mmaps a .snap file and returns a
// Snapshot whose slices point straight into the mapped pages: no
// copy, no parse, and the page cache is shared by every replica that
// opens the same file.
//
// The format is versioned and checksummed (magic, fixed header,
// section table, CRC-32C per section) and Open trusts nothing: every
// offset, length, index and invariant is validated before a byte is
// handed to the engine, so a truncated or bit-flipped file yields a
// clean error rather than a panic, an out-of-bounds read, or a
// silently wrong graph. docs/FORMAT.md specifies the exact layout and
// the versioning rules; the corruption and fuzz tests in this package
// pin the decoder down.
//
// Estimates computed from an mmap-backed Snapshot are byte-identical
// to those from the in-memory build — the snapshot/live equivalence
// property extends to the file boundary, and the determinism auditor
// (riskbench -mode audit) re-verifies it on every run.
package snapfile
