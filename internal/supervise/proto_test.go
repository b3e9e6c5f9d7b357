package supervise

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"samrdlb/internal/machine"
)

// readerConn is a control connection that only ever reads data.
func readerConn(data []byte) *controlConn {
	return &controlConn{r: bufio.NewReaderSize(bytes.NewReader(data), maxControlLine)}
}

// FuzzControlMsg feeds arbitrary bytes to the control-channel reader:
// it must return messages or errors, never panic, and every message it
// does return must survive the encoding send uses.
func FuzzControlMsg(f *testing.F) {
	f.Add([]byte(`{"type":"hello","shard":1,"pid":42,"addr":"127.0.0.1:9"}` + "\n"))
	f.Add([]byte(`{"type":"peers","peers":{"0":"a","1":"b"}}` + "\n" + `{"type":"step","shard":0,"step":3}` + "\n"))
	f.Add([]byte(`{"type":"result","shard":1,"fingerprint":"x","output":"y\n"}` + "\n"))
	f.Add([]byte(`{"type":"hello","shard":7}` + "\n"))
	f.Add([]byte(`{"peers":{"x":"a"}}` + "\n"))
	f.Add([]byte(strings.Repeat("x", maxControlLine+1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		cc := readerConn(data)
		for {
			m, err := cc.recv()
			if err != nil {
				return
			}
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatalf("a received message does not encode: %+v: %v", m, err)
			}
			back, err := readerConn(append(b, '\n')).recv()
			if len(m.Peers) == 0 {
				m.Peers = nil // omitempty: an empty map travels as none
			}
			if err != nil || !reflect.DeepEqual(back, m) {
				t.Fatalf("round trip: %+v became %+v (%v)", m, back, err)
			}
		}
	})
}

// TestControlLineIsCapped: a local peer that never sends a newline used
// to grow the supervising parent's heap for as long as it kept writing.
func TestControlLineIsCapped(t *testing.T) {
	flood := bytes.Repeat([]byte("x"), 2<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readerConn(flood).recv()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "control line longer") {
		t.Fatalf("an unterminated 2 MiB line was not refused: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Errorf("refusing the line allocated %d bytes", got)
	}
}

// TestHelloOutOfRangeShardRejected: the supervisor indexed its tables,
// and through ProcsOf the system's groups, by whatever shard a hello
// claimed — two hellos for shard 7 of 2 panicked the parent.
func TestHelloOutOfRangeShardRejected(t *testing.T) {
	sys := machine.WanPair(2, nil)
	s := &supervisor{
		cfg:      Config{NumShards: 2, Membership: machine.NewMembership(sys, 1), ProcsOf: sys.ProcsInGroup},
		addrs:    map[int]string{},
		helloed:  map[int]bool{},
		conns:    map[int]*controlConn{},
		lastStep: map[int]int{},
	}
	for _, shard := range []string{"7", "7", "-1"} {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.handleConn(newControlConn(server))
		}()
		if _, err := client.Write([]byte(`{"type":"hello","shard":` + shard + `}` + "\n")); err != nil {
			t.Fatal(err)
		}
		<-done // returns at once: a rejected hello closes the connection
		client.Close()
	}
	if len(s.conns) != 0 || len(s.helloed) != 0 {
		t.Errorf("a rejected hello was recorded: conns %v, helloed %v", s.conns, s.helloed)
	}
}
