package dataplane

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"nfp/internal/packet"
)

// ParseMatch parses a textual Classification Table match spec: a
// comma-separated list of field=value terms, any subset of
//
//	src=<CIDR>  dst=<CIDR>  sport=<port>  dport=<port>  proto=<tcp|udp|0-255>
//
// Omitted fields are wildcards; the empty string (or "any") matches
// everything. Prefixes must be IPv4: the dataplane matches IPv4 only,
// so an IPv6 or IPv4-mapped IPv6 prefix, which could never match, is
// an error. The spelling round-trips: ParseMatch(m.Spec()) == m for
// every m ParseMatch produces.
func ParseMatch(s string) (Match, error) {
	var m Match
	s = strings.TrimSpace(s)
	if s == "" || s == "any" {
		return m, nil
	}
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			return Match{}, fmt.Errorf("dataplane: empty term in match %q", s)
		}
		key, val, ok := strings.Cut(term, "=")
		if !ok {
			return Match{}, fmt.Errorf("dataplane: match term %q is not field=value", term)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "src", "dst":
			p, err := netip.ParsePrefix(val)
			if err != nil {
				// Accept a bare address as a /32 host match.
				a, aerr := netip.ParseAddr(val)
				if aerr != nil {
					return Match{}, fmt.Errorf("dataplane: bad %s prefix %q", key, val)
				}
				p = netip.PrefixFrom(a, a.BitLen())
			}
			if !p.Addr().Is4() {
				return Match{}, fmt.Errorf("dataplane: %s prefix %q is not IPv4", key, val)
			}
			if key == "src" {
				m.SrcPrefix = p.Masked()
			} else {
				m.DstPrefix = p.Masked()
			}
		case "sport", "dport":
			n, err := strconv.ParseUint(val, 10, 16)
			if err != nil || n == 0 {
				return Match{}, fmt.Errorf("dataplane: bad %s %q (1-65535)", key, val)
			}
			if key == "sport" {
				m.SrcPort = uint16(n)
			} else {
				m.DstPort = uint16(n)
			}
		case "proto":
			switch val {
			case "tcp":
				m.Proto = packet.ProtoTCP
			case "udp":
				m.Proto = packet.ProtoUDP
			default:
				n, err := strconv.ParseUint(val, 10, 8)
				if err != nil || n == 0 {
					return Match{}, fmt.Errorf("dataplane: bad proto %q (tcp, udp, 1-255)", val)
				}
				m.Proto = uint8(n)
			}
		default:
			return Match{}, fmt.Errorf("dataplane: unknown match field %q", key)
		}
	}
	return m, nil
}

// Spec renders the match in ParseMatch's canonical spelling ("any" for
// the all-wildcard match).
func (m Match) Spec() string {
	var terms []string
	if m.SrcPrefix.IsValid() {
		terms = append(terms, "src="+m.SrcPrefix.String())
	}
	if m.DstPrefix.IsValid() {
		terms = append(terms, "dst="+m.DstPrefix.String())
	}
	if m.SrcPort != 0 {
		terms = append(terms, "sport="+strconv.Itoa(int(m.SrcPort)))
	}
	if m.DstPort != 0 {
		terms = append(terms, "dport="+strconv.Itoa(int(m.DstPort)))
	}
	if m.Proto != 0 {
		switch m.Proto {
		case packet.ProtoTCP:
			terms = append(terms, "proto=tcp")
		case packet.ProtoUDP:
			terms = append(terms, "proto=udp")
		default:
			terms = append(terms, "proto="+strconv.Itoa(int(m.Proto)))
		}
	}
	if len(terms) == 0 {
		return "any"
	}
	return strings.Join(terms, ",")
}
