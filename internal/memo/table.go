package memo

import "snip/internal/units"

// Table is the serving contract: what schemes, the fleet layer, Shared
// snapshots and the OTA client probe and publish. Its one
// implementation is *FlatTable (one contiguous arena plus an
// open-addressing index, see flat.go), which is also the only OTA
// payload. SnipTable is the build shape that Flatten compiles, and its
// map Lookup is the reference the flat backend is measured against; it
// does not implement Table.
type Table interface {
	// Lookup probes for a pending event; see FlatTable.Lookup for the
	// contract.
	Lookup(eventType string, resolve Resolver) (entry *SnipEntry, probes int64, comparedBytes units.Size, ok bool)
	// Selection returns the necessary-input selection the table is
	// keyed on.
	Selection() Selection
	// Rows returns the number of entries.
	Rows() int
	// Size returns the modeled deployed size (the paper's table-size
	// figures).
	Size() units.Size
	// Fingerprint digests the table contents in canonical order; it
	// equals the Fingerprint of the SnipTable the table was built from.
	Fingerprint() uint64
	// SetMetrics attaches (nil detaches) observability counters. Attach
	// before the table is shared.
	SetMetrics(*TableMetrics)
}

var _ Table = (*FlatTable)(nil)
