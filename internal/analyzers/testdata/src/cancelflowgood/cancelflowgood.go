// Package cancelflowgood gates every blocking operation reachable from
// its entry points with a cancellation signal.
package cancelflowgood

import (
	"context"
	"time"
)

// Serve's loop always offers the stop channel alongside the data.
func Serve(data chan int, stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case v, ok := <-data:
			if !ok {
				return
			}
			_ = v
		}
	}
}

// Run never blocks: the select has a default arm.
func Run(out chan int) {
	select {
	case out <- 1:
	default:
	}
}

// relay.Serve delegates to a helper that is itself gated; the summary
// carries nothing back.
type relay struct{}

func (relay) Serve(in chan int, stop chan struct{}) {
	drain(in, stop)
}

func drain(in chan int, stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-in:
		}
	}
}

// Drive waits on a timer channel: cancellation-shaped, so the bare
// receive is a deliberate sleep, not a wedge.
func Drive(tick chan time.Time) {
	<-tick
}

// Broadcast offers the context's Done alongside the send.
func Broadcast(ctx context.Context, out chan int) {
	select {
	case <-ctx.Done():
	case out <- 1:
	}
}

// stuck blocks, but no entry point can reach it: reachability is part
// of the contract.
func stuck(ch chan int) {
	ch <- 1
}
