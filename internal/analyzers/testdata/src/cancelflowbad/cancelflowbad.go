// Package cancelflowbad reaches blocking operations from long-running
// entry points with no cancellation gate anywhere on the path.
package cancelflowbad

// Serve wedges on its data channel: nothing can stop the loop.
func Serve(data chan int) {
	for v := range data { // want "blocking range over channel is reachable from entry point Serve"
		_ = v
	}
}

// pump is the blocking site Run exposes two frames up.
func pump(out chan int) {
	out <- 1 // want "blocking channel send is reachable from entry point Run"
}

// Run delegates its loop; the summary carries pump's send back here.
func Run(out chan int) {
	for {
		pump(out)
	}
}

// Drive selects with neither a default nor a cancellation case: both
// arms are data traffic, so the select itself can wedge.
func Drive(a, b chan int) {
	select { // want "blocking select"
	case v := <-a:
		_ = v
	case b <- 1:
	}
}

// relay.Drive performs a bare receive from a data channel; a method is
// an entry point by its name, like a function.
type relay struct{}

func (relay) Drive(in chan int) int {
	return <-in // want "blocking channel receive is reachable from entry point Drive"
}

// Broadcast spawns a goroutine whose send nothing gates; the literal's
// sites belong to Broadcast.
func Broadcast(out chan int) {
	go func() {
		out <- 9 // want "blocking channel send is reachable from entry point Broadcast"
	}()
}
