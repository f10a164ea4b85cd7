package distfit

import "sync"

// Worker is one map worker: it pulls tasks from its Coordinator, computes
// the model partial for each chunk, and reports the result. Workers run as
// goroutines of the coordinator's process.
type Worker struct {
	c *Coordinator

	killCh   chan struct{}
	killOnce sync.Once
}

// Kill marks the worker dead: it accepts no further tasks, and the
// coordinator discards any result it was still computing — for the
// in-process worker, the observable behaviour of a crashed worker process.
// The chunk it was holding is recovered by the coordinator's TaskDeadline
// re-issue. Killing twice is safe.
func (w *Worker) Kill() {
	w.killOnce.Do(func() { close(w.killCh) })
}

// Dead reports whether the worker has been killed.
func (w *Worker) Dead() bool {
	select {
	case <-w.killCh:
		return true
	default:
		return false
	}
}

// run is the worker loop: request, compute, report, until the coordinator
// closes or the worker is killed. A goroutine cannot be pre-empted
// mid-compute, so a killed worker still reports its final result — the
// coordinator discards it (and needs the report to know the model is no
// longer being read).
func (w *Worker) run() {
	for {
		t, ok := w.c.requestTask(w.killCh)
		if !ok {
			return
		}
		p, err := w.c.m.PartialFit(t.recs)
		w.c.report(w, t, p, err)
		if w.Dead() {
			return
		}
	}
}
