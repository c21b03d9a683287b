package service

import "testing"

// TestJobTablePrunes pins the finished-record budget: the oldest finished
// records go first, and a queued or running job is never pruned.
func TestJobTablePrunes(t *testing.T) {
	add := func(tab *jobTable, state JobState) string {
		return tab.add(&job{state: state, done: make(chan struct{})})
	}
	tab := newJobTable(4)
	var ids []string
	for i := 0; i < 10; i++ {
		ids = append(ids, add(tab, JobDone))
	}
	for i, id := range ids {
		if _, ok := tab.get(id); ok != (i >= 6) {
			t.Errorf("finished job %d (%s) retrievable %v, want %v", i, id, ok, i >= 6)
		}
	}
	if len(tab.list()) != 4 {
		t.Errorf("table lists %d records, want 4", len(tab.list()))
	}

	tab = newJobTable(4)
	queued, running := add(tab, JobQueued), add(tab, JobRunning)
	ids = ids[:0]
	for i := 0; i < 10; i++ {
		ids = append(ids, add(tab, JobFailed))
	}
	for _, id := range []string{queued, running, ids[8], ids[9]} {
		if _, ok := tab.get(id); !ok {
			t.Errorf("job %s was pruned", id)
		}
	}
	if len(tab.list()) != 4 {
		t.Errorf("table lists %d records, want 4", len(tab.list()))
	}
	// Every record live: the table grows past its budget rather than
	// drop one.
	tab = newJobTable(2)
	for i := 0; i < 5; i++ {
		add(tab, JobRunning)
	}
	if len(tab.list()) != 5 {
		t.Errorf("table of live jobs lists %d records, want 5", len(tab.list()))
	}
}
