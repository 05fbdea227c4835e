package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSubmitBodyLimit: a POST body one byte over maxBodyBytes is
// refused with 413 and the usual JSON error, a body of exactly the
// limit reaches validation, and a normal submission still runs.
func TestSubmitBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A workload name padded so the whole body is n bytes long: valid
	// JSON that fails validation (unknown workload) once fully read.
	body := func(n int) string {
		const head, tail = `{"workload":"`, `"}`
		return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body(maxBodyBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	var msg struct {
		Error string `json:"error"`
	}
	decodeErr := json.NewDecoder(resp.Body).Decode(&msg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit body: status %d, want 413", resp.StatusCode)
	}
	if decodeErr != nil || !strings.Contains(msg.Error, "request body over") {
		t.Fatalf("over-limit body: error payload %+v (%v)", msg, decodeErr)
	}
	if _, code := postRun(t, ts, body(maxBodyBytes)); code != http.StatusBadRequest {
		t.Fatalf("body of exactly the limit: status %d, want 400 (unknown workload)", code)
	}
	sr, code := postRun(t, ts, `{"workload":"micro.gather","mode":"dx100","scale":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("normal submission: status %d, want 202", code)
	}
	if v := pollDone(t, ts, sr.ID); v.Status != StateDone {
		t.Fatalf("normal submission ended %s (%s)", v.Status, v.Error)
	}
}

// TestRetainedHeapPerJob is a small soak: 32 distinct pattern jobs run
// to completion, and the heap the daemon retains for them — read
// through its go.heap_alloc_bytes gauge after a collection — stays
// under 256 KiB per finished job. Finished jobs are never evicted, so
// this bounds what each one keeps (result, event ledger, span ring).
func TestRetainedHeapPerJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	modes := []string{"baseline", "dmp", "dx100"}
	job := func(i int) string {
		idx := make([]string, 64)
		for k := range idx {
			idx[k] = fmt.Sprint((k * 37) % 256)
		}
		return fmt.Sprintf(`{"pattern":{"name":"soak-%d","entries":[{"kernel":"gather","pattern":[%s],"delta":%d,"count":4}]},"mode":%q,"scale":1}`,
			i, strings.Join(idx, ","), 256+i, modes[i%len(modes)])
	}
	runAll := func(from, to int) {
		ids := make([]string, 0, to-from)
		for i := from; i < to; i++ {
			sr, code := postRun(t, ts, job(i))
			if code != http.StatusAccepted {
				t.Fatalf("job %d: submit status %d", i, code)
			}
			ids = append(ids, sr.ID)
		}
		for _, id := range ids {
			if v := pollDone(t, ts, id); v.Status != StateDone {
				t.Fatalf("job %s ended %s (%s)", id, v.Status, v.Error)
			}
		}
	}
	heap := func() float64 {
		// The gauge memoizes ReadMemStats for a second; wait it out so
		// the read follows the collection.
		time.Sleep(1100 * time.Millisecond)
		runtime.GC()
		return srv.metrics.reg.Snapshot().Gauges["go.heap_alloc_bytes"]
	}
	runAll(0, len(modes)) // warm up every mode's lazily built state
	before := heap()
	const jobs = 32
	runAll(len(modes), len(modes)+jobs)
	after := heap()
	per := (after - before) / jobs
	t.Logf("retained heap: %.0f -> %.0f bytes, %.0f per job", before, after, per)
	if per >= 256<<10 {
		t.Fatalf("daemon retains %.0f bytes per finished job, want < 256 KiB", per)
	}
}
