package pinbcast

import (
	"fmt"

	"pinbcast/internal/channel"
	"pinbcast/internal/server"
)

// ClientSpec places one client in a simulation.
type ClientSpec struct {
	Start    int // absolute slot at which the client begins listening
	Requests []Request
}

// SimConfig describes an end-to-end simulation.
type SimConfig struct {
	Program  *Program
	Contents map[string][]byte
	// Fault is the channel's fault process: a transmission it destroys
	// is lost to every client. Nil is fault-free.
	Fault   FaultModel
	Clients []ClientSpec
	// Horizon is the number of slots to simulate. Zero derives a
	// horizon from the latest client start plus four data cycles.
	Horizon int
}

// FileStats aggregates a simulation's outcomes per file.
type FileStats struct {
	Requests       int
	Completed      int
	DeadlineMet    int
	DeadlineMissed int
	MeanLatency    float64
	MaxLatency     int
	Corrupted      int
}

// SimReport is a simulation outcome.
type SimReport struct {
	Slots           int
	BlocksSent      int
	BlocksCorrupted int
	PerFile         map[string]*FileStats
	Results         []Result
	FaultModel      string
}

// Simulate runs an end-to-end broadcast simulation on a virtual clock:
// one server follows the program, the channel's fault model is drawn
// once per transmitted block, and each client is a Receiver fed every
// slot from its Start on. There are no goroutines and no transport, so
// seeded runs are exactly reproducible. The run ends when every request
// has completed, or at the horizon with the rest flushed as failures.
func Simulate(cfg SimConfig) (*SimReport, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("pinbcast: simulation without a program: %w", ErrBadSpec)
	}
	if len(cfg.Clients) == 0 {
		return nil, fmt.Errorf("pinbcast: simulation without clients: %w", ErrBadSpec)
	}
	if cfg.Fault == nil {
		cfg.Fault = channel.None{}
	}
	srv, err := server.New(cfg.Program, cfg.Contents)
	if err != nil {
		return nil, err
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		for _, cs := range cfg.Clients {
			horizon = max(horizon, cs.Start)
		}
		horizon += 4 * cfg.Program.DataCycle()
	}

	// lost is the fault seam every receiver shares: the channel's verdict
	// is drawn once per slot and recorded here, and each receiver's own
	// fault draw reads it back.
	lost := channel.SlotSet{}
	names := srv.Names()
	rcvs := make([]*Receiver, len(cfg.Clients))
	for i, cs := range cfg.Clients {
		if len(cs.Requests) == 0 {
			return nil, fmt.Errorf("pinbcast: simulated client %d has no requests: %w", i, ErrBadSpec)
		}
		rcvs[i], err = newReceiver(nil, &receiverConfig{names: names, requests: cs.Requests, fault: lost})
		if err != nil {
			return nil, fmt.Errorf("pinbcast: simulated client %d: %w", i, err)
		}
	}

	rep := &SimReport{PerFile: make(map[string]*FileStats), FaultModel: cfg.Fault.Name()}
	for t := 0; t < horizon; t++ {
		slot := Slot{T: t, Payload: srv.Emit(t)}
		if slot.Payload != nil {
			rep.BlocksSent++
			// The name lets a receiver charge a lost block to its request.
			slot.File = cfg.Program.Files[cfg.Program.FileAt(t)].Name
			if cfg.Fault.Corrupts(t) {
				lost[t] = true
				rep.BlocksCorrupted++
			}
		}
		done := true
		for i, r := range rcvs {
			if t >= cfg.Clients[i].Start {
				r.observe(slot)
			}
			done = done && r.Done()
		}
		rep.Slots = t + 1
		if done {
			break
		}
	}

	for _, r := range rcvs {
		rep.Results = append(rep.Results, r.cli.Flush(rep.Slots-1)...)
	}
	for _, r := range rep.Results {
		st := rep.PerFile[r.File]
		if st == nil {
			st = &FileStats{}
			rep.PerFile[r.File] = st
		}
		st.Requests++
		st.Corrupted += r.Corrupted
		if r.Completed {
			st.Completed++
			st.MeanLatency += float64(r.Latency)
			st.MaxLatency = max(st.MaxLatency, r.Latency)
		}
		if r.Deadline > 0 {
			if r.DeadlineMet { // never set on a flushed failure
				st.DeadlineMet++
			} else {
				st.DeadlineMissed++
			}
		}
	}
	for _, st := range rep.PerFile {
		if st.Completed > 0 {
			st.MeanLatency /= float64(st.Completed)
		}
	}
	return rep, nil
}

// MissRatio returns the fraction of deadline-carrying requests that
// missed, across all files.
func (r *SimReport) MissRatio() float64 {
	met, missed := 0, 0
	for _, st := range r.PerFile {
		met += st.DeadlineMet
		missed += st.DeadlineMissed
	}
	if met+missed == 0 {
		return 0
	}
	return float64(missed) / float64(met+missed)
}
