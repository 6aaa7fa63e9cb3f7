// Package asn defines the primitive interdomain-routing types shared by
// every other package in routelab: AS numbers, IPv4 prefixes, and AS paths
// (including AS_SET segments, which BGP poisoning experiments depend on).
//
// The types are deliberately small value types: they are hashable, usable
// as map keys, and their zero values are meaningful (ASN 0 is "unknown",
// the zero Prefix is the default route 0.0.0.0/0, the zero Path is empty).
package asn

import (
	"fmt"
	"strconv"
	"strings"
)

// ASN is an autonomous system number. The zero value means "unknown AS"
// and is never assigned to a real AS by the topology generator.
type ASN uint32

// String renders the ASN in the canonical "AS64500" form.
func (a ASN) String() string {
	var buf [12]byte
	return string(a.Append(buf[:0]))
}

// Append appends the canonical "AS64500" form to dst.
func (a ASN) Append(dst []byte) []byte {
	return strconv.AppendUint(append(dst, "AS"...), uint64(a), 10)
}

// IsZero reports whether the ASN is the unknown sentinel.
func (a ASN) IsZero() bool { return a == 0 }

// ParseASN parses "AS64500" or a bare decimal number.
func ParseASN(s string) (ASN, error) {
	t := strings.TrimPrefix(strings.TrimSpace(s), "AS")
	n, err := strconv.ParseUint(t, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("asn: parse %q: %w", s, err)
	}
	return ASN(n), nil
}

// Addr is an IPv4 address held as a big-endian uint32 so it can be used
// as a map key and compared with <.
type Addr uint32

// AddrFrom4 builds an Addr from four octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Octets returns the four octets of the address.
func (ip Addr) Octets() (a, b, c, d byte) {
	return byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)
}

// String renders dotted-quad notation.
func (ip Addr) String() string {
	a, b, c, d := ip.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", a, b, c, d)
}

// ParseAddr parses dotted-quad IPv4 notation.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(strings.TrimSpace(s), ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("asn: parse addr %q: want four octets", s)
	}
	var ip uint32
	for _, p := range parts {
		n, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("asn: parse addr %q: %w", s, err)
		}
		ip = ip<<8 | uint32(n)
	}
	return Addr(ip), nil
}

// Prefix is an IPv4 prefix. Bits outside the mask are always zero for
// prefixes built with NewPrefix, which keeps Prefix values canonical and
// therefore usable as map keys.
type Prefix struct {
	Addr Addr
	Len  uint8
}

// NewPrefix masks addr down to its first length bits and returns the
// canonical prefix. Lengths above 32 are clamped to 32.
func NewPrefix(addr Addr, length uint8) Prefix {
	if length > 32 {
		length = 32
	}
	return Prefix{Addr: addr & mask(length), Len: length}
}

func mask(length uint8) Addr {
	if length == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - length))
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip Addr) bool {
	return ip&mask(p.Len) == p.Addr
}

// ContainsPrefix reports whether q is equal to or more specific than p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.Len >= p.Len && p.Contains(q.Addr)
}

// Nth returns the nth address within the prefix, wrapping within the
// prefix size. It is how the simulator hands out router and host IPs.
func (p Prefix) Nth(n uint32) Addr {
	size := uint32(1) << (32 - p.Len)
	return p.Addr + Addr(n%size)
}

// String renders "a.b.c.d/len".
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Len)
}

// IsZero reports whether p is the zero (default-route) prefix.
func (p Prefix) IsZero() bool { return p == Prefix{} }

// ParsePrefix parses "a.b.c.d/len".
func ParsePrefix(s string) (Prefix, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return Prefix{}, fmt.Errorf("asn: parse prefix %q: missing /len", s)
	}
	addr, err := ParseAddr(s[:i])
	if err != nil {
		return Prefix{}, err
	}
	n, err := strconv.ParseUint(s[i+1:], 10, 8)
	if err != nil || n > 32 {
		return Prefix{}, fmt.Errorf("asn: parse prefix %q: bad length", s)
	}
	return NewPrefix(addr, uint8(n)), nil
}
