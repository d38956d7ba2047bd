package trace

import (
	"encoding/json"
	"io"
)

// Export is the JSON-serializable snapshot of a profile, for external
// plotting or archival (the counterpart of MPC-OMP's trace flush to
// disk, §2.3.1).
type Export struct {
	Breakdown Breakdown    `json:"breakdown"`
	Comm      CommSummary  `json:"comm"`
	Tasks     []TaskRecord `json:"tasks,omitempty"`
	Comms     []CommRecord `json:"requests,omitempty"`
}

// Snapshot builds an Export. withRecords includes the per-task and
// per-request records (can be large).
func (p *Profile) Snapshot(withRecords bool) Export {
	e := Export{
		Breakdown: p.Breakdown(),
		Comm:      p.CommSummary(),
	}
	if withRecords {
		e.Tasks = p.Tasks()
		e.Comms = p.Comms()
	}
	return e
}

// WriteJSON writes the profile snapshot as indented JSON.
func (p *Profile) WriteJSON(w io.Writer, withRecords bool) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Snapshot(withRecords))
}
