package nf

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net/netip"

	"nfp/internal/packet"
)

// StatefulNF is implemented by NFs whose internal state can be
// exported and imported. It is the §7 scaling primitive: "we could
// simply create a new instance on a VM or container, migrate some
// states [OpenNF, Split/Merge], and modify the forwarding table to
// redirect some flows to the new instance."
//
// ImportState merges the serialized state into the receiver (additive
// for counters, union for tables), so partial migrations compose.
type StatefulNF interface {
	NF
	ExportState() ([]byte, error)
	ImportState([]byte) error
}

// flowKeyDTO is a flow key's serialized form. Its field names and
// types are the exported-state wire format, unchanged since state
// export began.
type flowKeyDTO struct {
	SrcIP, DstIP     netip.Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

func toDTO(k packet.FlowKey) flowKeyDTO {
	return flowKeyDTO{netip.AddrFrom4(k.Src), netip.AddrFrom4(k.Dst), k.SrcPort, k.DstPort, k.Proto}
}

// key packs d. This dataplane exports IPv4 flows only.
func (d flowKeyDTO) key() (packet.FlowKey, error) {
	if !d.SrcIP.Is4() || !d.DstIP.Is4() {
		return packet.FlowKey{}, fmt.Errorf("flow %s->%s is not IPv4", d.SrcIP, d.DstIP)
	}
	return packet.FlowKey{Src: d.SrcIP.As4(), Dst: d.DstIP.As4(), SrcPort: d.SrcPort, DstPort: d.DstPort, Proto: d.Proto}, nil
}

// monitorState is the Monitor's serialized form.
type monitorState struct {
	Flows []flowRecordDTO
}

type flowRecordDTO struct {
	Key   flowKeyDTO
	Stats FlowStats
}

// ExportState implements StatefulNF: the full per-flow counter table.
func (m *Monitor) ExportState() ([]byte, error) {
	var st monitorState
	for _, fr := range m.Snapshot() {
		st.Flows = append(st.Flows, flowRecordDTO{Key: toDTO(fr.Key), Stats: fr.Stats})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("monitor: export: %w", err)
	}
	return buf.Bytes(), nil
}

// ImportState implements StatefulNF: counters merge additively, so a
// migrated instance continues exactly where the source left off.
func (m *Monitor) ImportState(b []byte) error {
	var st monitorState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return fmt.Errorf("monitor: import: %w", err)
	}
	for _, fr := range st.Flows {
		fk, err := fr.Key.key()
		if err != nil {
			return fmt.Errorf("monitor: import: %w", err)
		}
		cur := m.counters[fk]
		if cur == nil {
			cur = &FlowStats{}
			m.counters[fk] = cur
		}
		cur.Packets += fr.Stats.Packets
		cur.Bytes += fr.Stats.Bytes
		m.total.Packets += fr.Stats.Packets
		m.total.Bytes += fr.Stats.Bytes
	}
	return nil
}

// natState is the NAT's serialized form.
type natState struct {
	Bindings []natBindingDTO
	NextPort uint16
}

type natBindingDTO struct {
	Flow    flowKeyDTO
	ExtPort uint16
}

// ExportState implements StatefulNF: the translation table.
func (n *NAT) ExportState() ([]byte, error) {
	st := natState{NextPort: n.nextPort}
	for fk, ext := range n.forward {
		st.Bindings = append(st.Bindings, natBindingDTO{Flow: toDTO(fk), ExtPort: ext})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("nat: export: %w", err)
	}
	return buf.Bytes(), nil
}

// ImportState implements StatefulNF: bindings union in; existing
// bindings win conflicts (the source's traffic already depends on
// them). The port allocator resumes past both allocators' positions.
func (n *NAT) ImportState(b []byte) error {
	var st natState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return fmt.Errorf("nat: import: %w", err)
	}
	for _, bd := range st.Bindings {
		fk, err := bd.Flow.key()
		if err != nil {
			return fmt.Errorf("nat: import: %w", err)
		}
		if _, exists := n.forward[fk]; exists {
			continue
		}
		if _, used := n.reverse[bd.ExtPort]; used {
			// Port collision across instances: reallocate locally.
			port := n.allocPort()
			if port == 0 {
				return fmt.Errorf("nat: import: port space exhausted")
			}
			n.forward[fk] = port
			n.reverse[port] = natBinding{addr: bd.Flow.SrcIP, port: bd.Flow.SrcPort}
			continue
		}
		n.forward[fk] = bd.ExtPort
		n.reverse[bd.ExtPort] = natBinding{addr: bd.Flow.SrcIP, port: bd.Flow.SrcPort}
	}
	if st.NextPort > n.nextPort {
		n.nextPort = st.NextPort
	}
	return nil
}

// Migrate transfers state from src to dst; both must be the same NF
// type implementing StatefulNF.
func Migrate(src, dst NF) error {
	s, ok := src.(StatefulNF)
	if !ok {
		return fmt.Errorf("nf: %s does not export state", src.Name())
	}
	d, ok := dst.(StatefulNF)
	if !ok {
		return fmt.Errorf("nf: %s does not import state", dst.Name())
	}
	if src.Name() != dst.Name() {
		return fmt.Errorf("nf: cannot migrate %s state into %s", src.Name(), dst.Name())
	}
	b, err := s.ExportState()
	if err != nil {
		return err
	}
	return d.ImportState(b)
}
