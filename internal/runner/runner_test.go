package runner

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"
)

// setGOMAXPROCS sets GOMAXPROCS, and so the pool size, to n until the
// test ends.  GOMAXPROCS is process-wide, so a test calling it must not
// run in parallel.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// keyJobs builds n jobs whose values depend only on their keys, with
// staggered run times so that jobs finish out of order.
func keyJobs(n int) []Job[uint64] {
	jobs := make([]Job[uint64], n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("job/%d", i)
		jobs[i] = KeyedJob(key, func(context.Context) (uint64, error) {
			time.Sleep(time.Duration(i%3) * time.Millisecond)
			h := fnv.New64a()
			h.Write([]byte(key))
			return h.Sum64(), nil
		})
	}
	return jobs
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	jobs := keyJobs(64)
	var golden []uint64
	for _, procs := range []int{1, 4, 16} {
		setGOMAXPROCS(t, procs)
		got, err := All(context.Background(), jobs)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if golden == nil {
			golden = got
			continue
		}
		for i := range got {
			if got[i] != golden[i] {
				t.Fatalf("GOMAXPROCS=%d: job %d = %#x, want %#x (scheduling leaked into results)",
					procs, i, got[i], golden[i])
			}
		}
	}
}

func TestResultsStreamInJobOrder(t *testing.T) {
	// Jobs finish in reverse order (later jobs are faster), yet every
	// value must land at its job's index.
	const n = 8
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		d := time.Duration(n-i) * 2 * time.Millisecond
		jobs[i] = KeyedJob(fmt.Sprintf("rev/%d", i), func(context.Context) (int, error) {
			time.Sleep(d)
			return i, nil
		})
	}
	setGOMAXPROCS(t, n)
	got, err := All(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("returned %d values, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("values %v are not in job order", got)
		}
	}
}

func TestCancellationStopsPoolPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	jobs := make([]Job[struct{}], 64)
	for i := range jobs {
		jobs[i] = KeyedJob(fmt.Sprintf("block/%d", i), func(c context.Context) (struct{}, error) {
			started <- struct{}{}
			<-c.Done() // a well-behaved long job aborts on cancel
			return struct{}{}, c.Err()
		})
	}
	setGOMAXPROCS(t, 4)
	done := make(chan error, 1)
	go func() {
		_, err := All(ctx, jobs)
		done <- err
	}()
	// Wait for the pool to be saturated, then cancel.
	for i := 0; i < 4; i++ {
		<-started
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("All returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pool did not stop within 2s of cancellation")
	}
	// Only the in-flight jobs may have started; the other 60 must never
	// have been dispatched.
	if n := len(started); n > 8 {
		t.Fatalf("%d extra jobs dispatched after cancellation", n)
	}
	if n := Outstanding(); n != 0 {
		t.Fatalf("Outstanding() = %d after the pool returned, want 0", n)
	}
}

func TestFirstErrorInJobOrderWins(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	jobs := []Job[int]{
		{Key: "ok", Run: func(context.Context) (int, error) { return 1, nil }},
		{Key: "slow-fail", Run: func(context.Context) (int, error) {
			time.Sleep(20 * time.Millisecond)
			return 0, errA
		}},
		{Key: "fast-fail", Run: func(context.Context) (int, error) { return 0, errB }},
	}
	setGOMAXPROCS(t, 3)
	got, err := All(context.Background(), jobs)
	if !errors.Is(err, errA) {
		t.Fatalf("got %v, want the job-order-first error %v", err, errA)
	}
	if got != nil {
		t.Fatalf("a failed run returned values %v", got)
	}
}

// TestCollectOrdersValues pins the positional decode the mixed-result
// drivers rely on: Job[any] values of different dynamic types come back
// at their jobs' indices.
func TestCollectOrdersValues(t *testing.T) {
	jobs := make([]Job[any], 10)
	for i := range jobs {
		jobs[i] = KeyedJob(fmt.Sprintf("v/%d", i), func(context.Context) (any, error) {
			if i%2 == 0 {
				return i, nil
			}
			return fmt.Sprint(i), nil
		})
	}
	setGOMAXPROCS(t, 4)
	got, err := All(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if i%2 == 0 && v.(int) != i || i%2 == 1 && v.(string) != fmt.Sprint(i) {
			t.Fatalf("value %d = %#v", i, v)
		}
	}
}

func TestEmptyJobs(t *testing.T) {
	got, err := All[int](context.Background(), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("All(nil) = %v, %v", got, err)
	}
}
