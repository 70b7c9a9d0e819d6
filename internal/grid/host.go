package grid

import (
	"fmt"

	"apples/internal/load"
)

// Host is one machine in the metacomputer.
type Host struct {
	Name      string
	Arch      string  // architecture family, e.g. "sparc2", "alpha", "sp2"
	Site      string  // administrative domain, e.g. "PCL", "SDSC"
	Speed     float64 // Mflop/s delivered when fully dedicated
	MemoryMB  float64 // real memory available to the application
	Dedicated bool    // true if no ambient load ever competes

	// Features advertises software capabilities user specifications can
	// require (the paper's example: CLEO/NILE requires a CORBA ORB).
	Features map[string]bool

	index int // position in Topology.Hosts(), assigned by Finalize; -1 before
	cpu   *cpu
}

// String returns "name(site)".
func (h *Host) String() string { return fmt.Sprintf("%s(%s)", h.Name, h.Site) }

// Index returns the host's dense index: its position in its topology's
// Hosts(), the index HostIndex reports for its name. It is -1 before
// Finalize.
func (h *Host) Index() int { return h.index }

// HasFeature reports whether the host advertises the named capability.
func (h *Host) HasFeature(f string) bool { return h.Features[f] }

// CurrentLoad returns the ambient load (competing processes) right now.
func (h *Host) CurrentLoad() float64 { return h.cpu.currentLoad() }

// Availability returns the CPU fraction a newly arriving process would
// receive right now, ignoring the application's own tasks: 1/(1+load).
// This is the quantity NWS CPU sensors measure.
func (h *Host) Availability() float64 { return 1 / (1 + h.cpu.currentLoad()) }

// EffectiveSpeed returns Speed * Availability: the paper's "deliverable"
// compute rate for a single task arriving now.
func (h *Host) EffectiveSpeed() float64 { return h.Speed * h.Availability() }

// RunningTasks reports how many application tasks the host is executing.
func (h *Host) RunningTasks() int { return len(h.cpu.tasks) }

// Submit starts a compute task of `work` Mflop on the host; done fires when
// it completes. The task shares the CPU with ambient load and other tasks.
func (h *Host) Submit(work float64, done func()) *Task {
	return h.cpu.submit(work, done)
}

// Cancel aborts a running task; its completion callback will not fire.
func (h *Host) Cancel(t *Task) { h.cpu.cancel(t) }

// SetLoad replaces the host's ambient load source. Must be called before
// the simulation starts advancing, or with a source whose origin is the
// current time.
func (h *Host) SetLoad(src load.Source) { h.cpu.setLoad(src) }
