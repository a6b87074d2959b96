// Command setupprobe is an in-process workload's program set-up as a
// process of its own: it starts, initialises the repro packages, builds the
// workload's pipeline and exits. perfbench times it from exec to exit.
//
//	setupprobe recover-sweep|solve-exact
package main

import (
	"fmt"
	"os"

	"repro/perfbench/pipelines"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: setupprobe recover-sweep|solve-exact")
		os.Exit(2)
	}
	pipe, ok := pipelines.For(os.Args[1])
	if !ok || pipe.Engine() == nil {
		fmt.Fprintf(os.Stderr, "setupprobe: no in-process pipeline for %q\n", os.Args[1])
		os.Exit(2)
	}
}
