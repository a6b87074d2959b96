// Package pipelines builds the pipeline each in-process perfbench workload
// runs: the workload's program set-up, shared by perfbench and the
// set-up probe that times it.
package pipelines

import (
	"runtime"

	"repro"
)

// For builds the named workload's pipeline; ok is false for workloads that
// do not run in process.
func For(workload string) (pipe *repro.Pipeline, ok bool) {
	switch workload {
	case "recover-sweep":
		return repro.NewPipeline(repro.WithFastWindows(), repro.WithWorkers(runtime.NumCPU())), true
	case "solve-exact":
		return repro.NewPipeline(), true
	}
	return nil, false
}
