// Package slp is a from-scratch implementation of the Service Location
// Protocol, version 2 (RFC 2608), over the simulated network.
//
// SLP is one of the two SDPs the INDISS prototype bridges (paper §4: the
// authors used OpenSLP). The package provides:
//
//   - The binary wire format: the 14-byte common header, URL entries,
//     length-prefixed strings, and the eleven SLPv2 message types
//     (SrvRqst, SrvRply, SrvReg, SrvDeReg, SrvAck, AttrRqst, AttrRply,
//     DAAdvert, SrvTypeRqst, SrvTypeRply, SAAdvert).
//   - Attribute lists with RFC 2608 §5 escaping and typed values.
//   - An LDAPv3 search filter subset (RFC 2254) for SrvRqst predicates.
//   - The two repository-less SLP entities: UserAgent (client) and
//     ServiceAgent (service), with active discovery (multicast
//     convergence with previous-responder accumulation and
//     retransmission) and passive discovery (unsolicited SAAdvert
//     multicast). The optional Directory Agent (DA) of paper §2 is left
//     out: no figure or driver deploys one, and a DA's announcements
//     carry no service for the SLP unit to translate. DAAdverts are
//     parsed and ignored.
//
// The paper's Figure 5a lists SLP's IANA identification tag: UDP/TCP port
// 427 on multicast group 239.255.255.253; these live in Port and
// MulticastGroup and double as the monitor component's detection keys.
package slp
