package netapi

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Addr identifies a UDP or TCP endpoint. IP is a dotted-quad string;
// multicast addresses use the 224.0.0.0/4 range exactly as on a real IP
// network.
type Addr struct {
	IP   string
	Port int
}

// String renders the address in the familiar "ip:port" form.
func (a Addr) String() string {
	return a.IP + ":" + strconv.Itoa(a.Port)
}

// IsMulticast reports whether the address lies in 224.0.0.0/4.
func (a Addr) IsMulticast() bool {
	return IsMulticastIP(a.IP)
}

// IsMulticastIP reports whether ip falls in the IPv4 multicast range
// 224.0.0.0–239.255.255.255.
func IsMulticastIP(ip string) bool {
	first, _, ok := strings.Cut(ip, ".")
	if !ok {
		return false
	}
	n, err := strconv.Atoi(first)
	if err != nil {
		return false
	}
	return n >= 224 && n <= 239
}

// ErrBadAddr reports a malformed "ip:port" string.
var ErrBadAddr = errors.New("netapi: malformed address")

// ParseAddr parses an "ip:port" string into an Addr.
func ParseAddr(s string) (Addr, error) {
	ip, portStr, ok := strings.Cut(s, ":")
	if !ok || ip == "" {
		return Addr{}, fmt.Errorf("%w: %q", ErrBadAddr, s)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 0 || port > 65535 {
		return Addr{}, fmt.Errorf("%w: %q", ErrBadAddr, s)
	}
	return Addr{IP: ip, Port: port}, nil
}
