// Package transport mirrors internal/transport's conn: Send is a
// hold-rule sink for its callers, and the package itself is exempt.
package transport

// Message is one frame.
type Message struct{ Payload []byte }

// Conn delivers frames over an in-process channel.
type Conn struct{ ch chan Message }

// Send delivers one message, blocking until the peer receives it.
func (c *Conn) Send(m Message) error {
	c.ch <- m
	return nil
}
