package nf

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net/netip"
	"os"
	"sort"
	"strings"
	"testing"
)

// The testdata/*_state.gob files are Monitor and NAT ExportState bytes
// written by the release whose flow key was the netip-based 5-tuple;
// the matching *_state.txt files render the state they were exported
// from. They are fixed inputs: never regenerate them, or the test stops
// proving that old exports still import.
//
// Monitor traffic: 3 packets 10.0.0.1:1000->10.0.0.2:80/tcp, 1 packet
// 10.0.0.3:2000->10.0.0.4:443/tcp, 2 packets 192.168.1.10:5353->
// 8.8.8.8:53/udp and 5 packets 172.16.5.4:65535->10.200.0.1:1/tcp.
// NAT traffic: one outbound packet each of 192.168.1.10:44444->
// 8.8.8.8:53/tcp, 192.168.2.20:2222->8.8.4.4:53/udp and
// 10.1.2.3:{1,2}->1.1.1.1:443/tcp.

func renderMonitor(m *Monitor) string {
	var b strings.Builder
	for _, fr := range m.Snapshot() {
		fmt.Fprintf(&b, "%s packets=%d bytes=%d\n", fr.Key, fr.Stats.Packets, fr.Stats.Bytes)
	}
	fmt.Fprintf(&b, "total packets=%d bytes=%d\n", m.Total().Packets, m.Total().Bytes)
	return b.String()
}

func renderNAT(n *NAT) string {
	var lines []string
	for fk, ext := range n.forward {
		lines = append(lines, fmt.Sprintf("forward %s ext=%d", fk, ext))
	}
	for ext, b := range n.reverse {
		lines = append(lines, fmt.Sprintf("reverse ext=%d %s:%d", ext, b.addr, b.port))
	}
	sort.Strings(lines)
	lines = append(lines, fmt.Sprintf("nextport %d", n.nextPort))
	return strings.Join(lines, "\n") + "\n"
}

func readGolden(t *testing.T, name string) (state []byte, want string) {
	t.Helper()
	state, err := os.ReadFile("testdata/" + name + ".gob")
	if err != nil {
		t.Fatal(err)
	}
	txt, err := os.ReadFile("testdata/" + name + ".txt")
	if err != nil {
		t.Fatal(err)
	}
	return state, string(txt)
}

func TestMonitorStateGolden(t *testing.T) {
	b, want := readGolden(t, "monitor_state")
	m := NewMonitor()
	if err := m.ImportState(b); err != nil {
		t.Fatal(err)
	}
	if got := renderMonitor(m); got != want {
		t.Fatalf("imported monitor state:\n%s\nwant:\n%s", got, want)
	}
	// Round trip through the current exporter.
	out, err := m.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	again := NewMonitor()
	if err := again.ImportState(out); err != nil {
		t.Fatal(err)
	}
	if got := renderMonitor(again); got != want {
		t.Fatalf("re-exported monitor state:\n%s\nwant:\n%s", got, want)
	}
}

func TestNATStateGolden(t *testing.T) {
	b, want := readGolden(t, "nat_state")
	n, _ := NewNAT()
	if err := n.ImportState(b); err != nil {
		t.Fatal(err)
	}
	if got := renderNAT(n); got != want {
		t.Fatalf("imported NAT state:\n%s\nwant:\n%s", got, want)
	}
	out, err := n.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	again, _ := NewNAT()
	if err := again.ImportState(out); err != nil {
		t.Fatal(err)
	}
	if got := renderNAT(again); got != want {
		t.Fatalf("re-exported NAT state:\n%s\nwant:\n%s", got, want)
	}
}

// TestImportRejectsNonIPv4Flows: a state blob naming a non-IPv4 flow
// cannot have come from this dataplane; import fails instead of
// inventing a key.
func TestImportRejectsNonIPv4Flows(t *testing.T) {
	bad := flowKeyDTO{SrcIP: netip.MustParseAddr("2001:db8::1"), DstIP: netip.MustParseAddr("10.0.0.1")}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(monitorState{Flows: []flowRecordDTO{{Key: bad}}}); err != nil {
		t.Fatal(err)
	}
	if err := NewMonitor().ImportState(buf.Bytes()); err == nil {
		t.Error("monitor imported an IPv6 flow")
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(natState{Bindings: []natBindingDTO{{Flow: flowKeyDTO{}, ExtPort: 20000}}}); err != nil {
		t.Fatal(err)
	}
	n, _ := NewNAT()
	if err := n.ImportState(buf.Bytes()); err == nil {
		t.Error("NAT imported a flow with no addresses")
	}
}
