package jini

// This file exposes the minimal packet-level surface INDISS's Jini unit
// needs to peek at monitor-captured datagrams.

// PacketKind classifies a raw Jini discovery datagram.
type PacketKind uint8

// Packet kinds visible to the bridge.
const (
	// KindRequestPacket is a multicast discovery request.
	KindRequestPacket PacketKind = PacketKind(kindRequest)
	// KindAnnouncePacket is a lookup-service announcement.
	KindAnnouncePacket PacketKind = PacketKind(kindAnnounce)
)

// PacketReader walks one opened packet.
type PacketReader struct {
	r *jreader
}

// OpenPacket validates a datagram header and returns its kind and a
// reader over the body. Unicast-only kinds (register/lookup) are reported
// with their kind value but have no exported parser: the monitor never
// sees them.
func OpenPacket(data []byte) (PacketKind, *PacketReader, error) {
	kind, r, err := openPacket(data)
	if err != nil {
		return 0, nil, err
	}
	return PacketKind(kind), &PacketReader{r: r}, nil
}

// ParseRequestPacket decodes a multicast discovery request body.
func ParseRequestPacket(pr *PacketReader) (groups []string, responsePort int, err error) {
	m, err := parseRequest(pr.r)
	if err != nil {
		return nil, 0, err
	}
	return m.Groups, m.ResponsePort, nil
}

// ParseAnnouncementPacket decodes an announcement body into its locator
// and the groups the lookup service serves.
func ParseAnnouncementPacket(pr *PacketReader) (Locator, []string, error) {
	m, err := parseAnnouncement(pr.r)
	if err != nil {
		return Locator{}, nil, err
	}
	return m.Locator, m.Groups, nil
}
