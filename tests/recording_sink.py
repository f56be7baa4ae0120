"""A UdpSink for tests that need each delivered packet, not per-second sums."""

from linksim.traffic import UDP_DATA, UdpSink


class SeqSink(UdpSink):
    """A UdpSink that also records each delivered packet of its flow: its
    receive time plus the processing delay, and its sequence number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rx_t_us = []
        self.rx_seq = []

    def _on_rx(self, packet, t_us):
        super()._on_rx(packet, t_us)
        if packet.kind == UDP_DATA and packet.flow == self.flow:
            self.rx_t_us.append(t_us + self._delay_us)
            self.rx_seq.append(packet.seq)
