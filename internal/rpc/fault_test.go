package rpc

import (
	"context"
	"errors"
	"testing"

	"repro/internal/metrics"
)

func echoConn(t *testing.T) Conn {
	t.Helper()
	srv := NewServer()
	srv.Register("echo", func(_ context.Context, req Message) (Message, error) {
		return Message{Meta: req.Meta}, nil
	})
	n := NewInprocNet()
	if err := n.Listen("a", srv); err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFaultDropRateAndDeterminism(t *testing.T) {
	run := func(seed int64) (failures int, schedule []bool) {
		f := WithFaults(echoConn(t), FaultConfig{Seed: seed, DropRequest: 0.3, Registry: metrics.NewRegistry()})
		for i := 0; i < 1000; i++ {
			_, err := f.Call(context.Background(), "echo", Message{})
			schedule = append(schedule, err != nil)
			if err != nil {
				if !errors.Is(err, ErrInjected) || !IsTransient(err) {
					t.Fatalf("injected error misclassified: %v", err)
				}
				failures++
			}
		}
		return failures, schedule
	}
	n1, s1 := run(7)
	n2, s2 := run(7)
	if n1 != n2 {
		t.Fatalf("same seed, different drop counts: %d vs %d", n1, n2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("same seed, schedules diverge at call %d", i)
		}
	}
	// ~30% of 1000; allow generous slack.
	if n1 < 200 || n1 > 400 {
		t.Errorf("drop rate off: %d/1000 dropped at p=0.3", n1)
	}
	if n3, _ := run(8); n3 == n1 {
		t.Logf("different seeds coincided (possible but unlikely): %d", n3)
	}
}

func TestFaultDropResponseExecutesHandler(t *testing.T) {
	srv := NewServer()
	executed := 0
	srv.Register("inc", func(context.Context, Message) (Message, error) {
		executed++
		return Message{}, nil
	})
	n := NewInprocNet()
	n.Listen("a", srv)
	inner, _ := n.Dial("a")
	f := WithFaults(inner, FaultConfig{Seed: 1, DropResponse: 1, Registry: metrics.NewRegistry()})
	_, err := f.Call(context.Background(), "inc", Message{})
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if executed != 1 {
		t.Fatalf("handler executed %d times; response drop must execute exactly once", executed)
	}
}

func TestFaultPartitionSwitch(t *testing.T) {
	f := WithFaults(echoConn(t), FaultConfig{Registry: metrics.NewRegistry()})
	if _, err := f.Call(context.Background(), "echo", Message{}); err != nil {
		t.Fatalf("zero config injected a fault: %v", err)
	}
	f.SetPartitioned(true)
	if _, err := f.Call(context.Background(), "echo", Message{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned call: %v", err)
	}
	f.SetPartitioned(false)
	if _, err := f.Call(context.Background(), "echo", Message{}); err != nil {
		t.Fatalf("healed call: %v", err)
	}
}

func TestErrorClassification(t *testing.T) {
	remote := &remoteError{msg: "handler said no", status: StatusError}
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{ErrClosed, false},
		{remote, false},
		{context.DeadlineExceeded, true},
		{ErrInjected, true},
		{ErrUnavailable, true},
		{errors.New("connection reset by peer"), true},
		{MarkTransient(remote), true},
	}
	for i, tc := range cases {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("case %d: IsTransient(%v) = %v, want %v", i, tc.err, got, tc.want)
		}
	}
}
