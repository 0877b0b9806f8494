package parser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/relation"
)

// Parser consumes a token stream and produces DeVIL statements.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a whole DeVIL program (statements separated by semicolons).
func Parse(src string) ([]Statement, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	var out []Statement
	for {
		for p.at(TokSemi) {
			p.advance()
		}
		if p.at(TokEOF) {
			return out, nil
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.at(TokSemi) && !p.at(TokEOF) {
			return nil, p.errorf("expected ';' after statement")
		}
	}
}

// ParseQuery parses a single query expression (no assignment).
func ParseQuery(src string) (QueryExpr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	q, err := p.parseQueryExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF) && !p.at(TokSemi) {
		return nil, p.errorf("unexpected trailing input after query")
	}
	return q, nil
}

// ParseExpr parses a standalone scalar expression, used by the precision
// rule language and by tests.
func ParseExpr(src string) (expr.Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF) {
		return nil, p.errorf("unexpected trailing input after expression")
	}
	return e, nil
}

// --- token helpers ---

func (p *Parser) cur() Token { return p.toks[p.pos] }
func (p *Parser) peek() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *Parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}
func (p *Parser) at(k TokKind) bool   { return p.cur().Kind == k }
func (p *Parser) atKw(kw string) bool { return p.cur().Is(kw) }

func (p *Parser) errorf(format string, args ...any) error {
	t := p.cur()
	where := fmt.Sprintf("%d:%d", t.Line, t.Col)
	what := t.Text
	if t.Kind == TokEOF {
		what = "end of input"
	}
	return fmt.Errorf("parse error at %s near %q: %s", where, what, fmt.Sprintf(format, args...))
}

func (p *Parser) expect(k TokKind, what string) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errorf("expected %s", what)
	}
	return p.advance(), nil
}

func (p *Parser) expectKw(kw string) error {
	if !p.atKw(kw) {
		return p.errorf("expected keyword %s", kw)
	}
	p.advance()
	return nil
}

func (p *Parser) acceptKw(kw string) bool {
	if p.atKw(kw) {
		p.advance()
		return true
	}
	return false
}

// reserved words that terminate identifiers in expressions/aliases.
var reserved = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "AS": true, "UNION": true,
	"MINUS": true, "INTERSECT": true, "ALL": true, "DISTINCT": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "IS": true, "NULL": true,
	"EVENT": true, "RETURN": true, "FORALL": true, "EXISTS": true,
	"BACKWARD": true, "FORWARD": true, "TRACE": true, "TO": true,
	"CREATE": true, "TABLE": true, "INSERT": true, "INTO": true,
	"VALUES": true, "DELETE": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "TRUE": true, "FALSE": true, "DESC": true,
	"ASC": true, "ON": true, "BETWEEN": true,
}

func isReserved(s string) bool { return reserved[strings.ToUpper(s)] }

// --- statements ---

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.atKw("CREATE"):
		return p.parseCreateTable()
	case p.atKw("INSERT"):
		return p.parseInsert()
	case p.atKw("DELETE"):
		return p.parseDelete()
	case p.at(TokIdent) && !isReserved(p.cur().Text) && p.peek().Kind == TokEq:
		name := p.advance().Text
		p.advance() // '='
		q, err := p.parseAssignRHS()
		if err != nil {
			return nil, err
		}
		if ev, ok := q.(*eventRHS); ok {
			ev.stmt.Name = name
			return ev.stmt, nil
		}
		return &AssignStmt{Name: name, Query: q.(QueryExpr)}, nil
	case p.atKw("SELECT"):
		q, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Name: "", Query: q}, nil
	default:
		return nil, p.errorf("expected a statement (CREATE, INSERT, DELETE, SELECT, or name = ...)")
	}
}

// eventRHS lets parseAssignRHS return an EventStmt (which is a Statement,
// not a QueryExpr) through the same code path.
type eventRHS struct{ stmt *EventStmt }

func (e *eventRHS) query() {}

func (p *Parser) parseAssignRHS() (any, error) {
	switch {
	case p.atKw("EVENT"):
		ev, err := p.parseEventStmt()
		if err != nil {
			return nil, err
		}
		return &eventRHS{stmt: ev}, nil
	default:
		return p.parseQueryExpr()
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	p.advance() // CREATE
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	nameTok, err := p.expect(TokIdent, "table name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen, "'('"); err != nil {
		return nil, err
	}
	var cols []relation.Column
	for {
		colTok, err := p.expect(TokIdent, "column name")
		if err != nil {
			return nil, err
		}
		typTok, err := p.expect(TokIdent, "column type")
		if err != nil {
			return nil, err
		}
		kind, err := kindFromName(typTok.Text)
		if err != nil {
			return nil, p.errorf("%v", err)
		}
		cols = append(cols, relation.Col(colTok.Text, kind))
		if p.at(TokComma) {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(TokRParen, "')'"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Name: nameTok.Text, Schema: relation.NewSchema(cols...)}, nil
}

func kindFromName(s string) (relation.Kind, error) {
	switch strings.ToLower(s) {
	case "int", "integer", "bigint":
		return relation.KindInt, nil
	case "float", "real", "double":
		return relation.KindFloat, nil
	case "string", "text", "varchar":
		return relation.KindString, nil
	case "bool", "boolean":
		return relation.KindBool, nil
	default:
		return relation.KindNull, fmt.Errorf("unknown column type %q", s)
	}
}

func (p *Parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	nameTok, err := p.expect(TokIdent, "table name")
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: nameTok.Text}
	if p.at(TokLParen) && p.peek().Kind == TokIdent && !p.peek().Is("SELECT") {
		p.advance()
		for {
			c, err := p.expect(TokIdent, "column name")
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c.Text)
			if p.at(TokComma) {
				p.advance()
				continue
			}
			break
		}
		if _, err := p.expect(TokRParen, "')'"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.atKw("VALUES"):
		p.advance()
		for {
			if _, err := p.expect(TokLParen, "'('"); err != nil {
				return nil, err
			}
			var row []expr.Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.at(TokComma) {
					p.advance()
					continue
				}
				break
			}
			if _, err := p.expect(TokRParen, "')'"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if p.at(TokComma) {
				p.advance()
				continue
			}
			break
		}
	case p.atKw("SELECT") || p.at(TokLParen):
		q, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		ins.Query = q
	default:
		return nil, p.errorf("expected VALUES or SELECT in INSERT")
	}
	return ins, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	nameTok, err := p.expect(TokIdent, "table name")
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: nameTok.Text}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

// --- queries ---

func (p *Parser) parseQueryExpr() (QueryExpr, error) {
	left, err := p.parseQueryPrimary()
	if err != nil {
		return nil, err
	}
	for {
		var op SetOpKind
		switch {
		case p.atKw("UNION"):
			op = SetUnion
		case p.atKw("MINUS"):
			op = SetMinus
		case p.atKw("INTERSECT"):
			op = SetIntersect
		default:
			return left, nil
		}
		p.advance()
		all := false
		if op == SetUnion && p.acceptKw("ALL") {
			all = true
		}
		right, err := p.parseQueryPrimary()
		if err != nil {
			return nil, err
		}
		left = &SetOp{Op: op, All: all, L: left, R: right}
	}
}

func (p *Parser) parseQueryPrimary() (QueryExpr, error) {
	switch {
	case p.atKw("SELECT"):
		return p.parseSelect()
	case p.atKw("BACKWARD"), p.atKw("FORWARD"):
		return p.parseTrace()
	case p.atKw("RENDER"):
		return p.parseRender()
	case p.at(TokLParen):
		p.advance()
		q, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, "')'"); err != nil {
			return nil, err
		}
		// allow set ops after a parenthesized query: (A MINUS B) UNION C
		return q, nil
	case p.at(TokIdent) && !isReserved(p.cur().Text):
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		return &RelRefQuery{Ref: ref}, nil
	default:
		return nil, p.errorf("expected SELECT, TRACE, render(), or a relation name")
	}
}

func (p *Parser) parseRender() (QueryExpr, error) {
	p.advance() // RENDER
	if _, err := p.expect(TokLParen, "'(' after render"); err != nil {
		return nil, err
	}
	inner, err := p.parseQueryExpr()
	if err != nil {
		return nil, err
	}
	r := &RenderStmt{Inner: inner}
	if p.at(TokComma) {
		p.advance()
		mt, err := p.expect(TokString, "mark type string")
		if err != nil {
			return nil, err
		}
		r.MarkType = strings.ToLower(mt.Text)
	}
	if _, err := p.expect(TokRParen, "')'"); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *Parser) parseTrace() (QueryExpr, error) {
	backward := p.atKw("BACKWARD")
	p.advance()
	if err := p.expectKw("TRACE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseFromList()
	if err != nil {
		return nil, err
	}
	tr := &TraceStmt{Backward: backward, From: from}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		tr.Where = e
	}
	if err := p.expectKw("TO"); err != nil {
		return nil, err
	}
	to, err := p.expect(TokIdent, "target relation name")
	if err != nil {
		return nil, err
	}
	tr.To = to.Text
	return tr, nil
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	p.advance() // SELECT
	sel := &SelectStmt{Limit: -1}
	if p.acceptKw("DISTINCT") {
		sel.Distinct = true
	} else {
		p.acceptKw("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.at(TokComma) {
			p.advance()
			continue
		}
		break
	}
	if p.acceptKw("FROM") {
		from, err := p.parseFromList()
		if err != nil {
			return nil, err
		}
		sel.From = from
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.atKw("GROUP") {
		p.advance()
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.at(TokComma) {
				p.advance()
				continue
			}
			break
		}
	}
	if p.acceptKw("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.atKw("ORDER") {
		p.advance()
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.at(TokComma) {
				p.advance()
				continue
			}
			break
		}
	}
	if p.acceptKw("LIMIT") {
		n, err := p.expect(TokNumber, "limit count")
		if err != nil {
			return nil, err
		}
		v, err := strconv.Atoi(n.Text)
		if err != nil || v < 0 {
			return nil, p.errorf("invalid LIMIT %q", n.Text)
		}
		sel.Limit = v
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.at(TokStar) {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	// qualified star: name.*
	if p.at(TokIdent) && !isReserved(p.cur().Text) && p.peek().Kind == TokDot {
		if p.pos+2 < len(p.toks) && p.toks[p.pos+2].Kind == TokStar {
			q := p.advance().Text
			p.advance() // .
			p.advance() // *
			return SelectItem{Star: true, StarQualifier: q}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		a, err := p.expect(TokIdent, "alias")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a.Text
	} else if p.at(TokIdent) && !isReserved(p.cur().Text) {
		item.Alias = p.advance().Text
	}
	return item, nil
}

func (p *Parser) parseFromList() ([]TableRef, error) {
	var out []TableRef
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		out = append(out, ref)
		// Only consume a comma when the next token can start a table ref;
		// otherwise the comma belongs to an enclosing construct, e.g. the
		// mark-type argument of render(SELECT ... FROM t, 'rect').
		if p.at(TokComma) && (p.peek().Kind == TokIdent || p.peek().Kind == TokLParen) {
			p.advance()
			continue
		}
		return out, nil
	}
}

func (p *Parser) parseTableRef() (TableRef, error) {
	var ref TableRef
	if p.at(TokLParen) {
		p.advance()
		q, err := p.parseQueryExpr()
		if err != nil {
			return TableRef{}, err
		}
		if _, err := p.expect(TokRParen, "')'"); err != nil {
			return TableRef{}, err
		}
		ref.Sub = q
	} else {
		nameTok, err := p.expect(TokIdent, "relation name")
		if err != nil {
			return TableRef{}, err
		}
		if isReserved(nameTok.Text) {
			return TableRef{}, p.errorf("reserved word %q cannot name a relation", nameTok.Text)
		}
		ref.Name = nameTok.Text
		if p.at(TokAt) {
			p.advance()
			v, err := p.parseVersionRef()
			if err != nil {
				return TableRef{}, err
			}
			ref.Version = v
		}
	}
	if p.acceptKw("AS") {
		a, err := p.expect(TokIdent, "alias")
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = a.Text
	} else if p.at(TokIdent) && !isReserved(p.cur().Text) {
		ref.Alias = p.advance().Text
	}
	if ref.Sub != nil && ref.Alias == "" {
		return TableRef{}, p.errorf("subquery in FROM requires an alias")
	}
	return ref, nil
}

// parseVersionRef parses `vnow[-i]` or `tnow[-j]`, with or without braces:
// rel@vnow-1 and rel@{vnow-1} are both accepted (the paper uses both forms).
func (p *Parser) parseVersionRef() (relation.VersionRef, error) {
	braced := false
	if p.at(TokLBrace) {
		braced = true
		p.advance()
	}
	kw, err := p.expect(TokIdent, "vnow or tnow")
	if err != nil {
		return relation.VersionRef{}, err
	}
	var kind relation.VersionKind
	switch strings.ToLower(kw.Text) {
	case "vnow":
		kind = relation.VersionVNow
	case "tnow":
		kind = relation.VersionTNow
	default:
		return relation.VersionRef{}, p.errorf("expected vnow or tnow, got %q", kw.Text)
	}
	offset := 0
	if p.at(TokMinus) {
		p.advance()
		n, err := p.expect(TokNumber, "version offset")
		if err != nil {
			return relation.VersionRef{}, err
		}
		offset, err = strconv.Atoi(n.Text)
		if err != nil || offset < 0 {
			return relation.VersionRef{}, p.errorf("invalid version offset %q", n.Text)
		}
	}
	if braced {
		if _, err := p.expect(TokRBrace, "'}'"); err != nil {
			return relation.VersionRef{}, err
		}
	}
	return relation.VersionRef{Kind: kind, Offset: offset}, nil
}

// --- EVENT statements ---

func (p *Parser) parseEventStmt() (*EventStmt, error) {
	p.advance() // EVENT
	ev := &EventStmt{}
	for {
		typTok, err := p.expect(TokIdent, "event type")
		if err != nil {
			return nil, err
		}
		elem := SeqElem{Type: strings.ToUpper(typTok.Text)}
		if p.at(TokStar) {
			p.advance()
			elem.Kleene = true
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		aliasTok, err := p.expect(TokIdent, "event alias")
		if err != nil {
			return nil, err
		}
		elem.Alias = aliasTok.Text
		// The paper writes "MOUSE_MOVE* AS M*" — tolerate a trailing star
		// on the alias as decoration.
		if p.at(TokStar) {
			p.advance()
		}
		ev.Seq = append(ev.Seq, elem)
		if p.at(TokComma) {
			p.advance()
			continue
		}
		break
	}
	if p.acceptKw("WHERE") {
		for {
			pred, err := p.parseEventPred(ev)
			if err != nil {
				return nil, err
			}
			ev.Filters = append(ev.Filters, pred)
			if p.atKw("AND") {
				p.advance()
				continue
			}
			break
		}
	}
	if err := p.expectKw("RETURN"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(TokLParen, "'(' opening a RETURN group"); err != nil {
			return nil, err
		}
		var group []SelectItem
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			group = append(group, item)
			if p.at(TokComma) {
				p.advance()
				continue
			}
			break
		}
		if _, err := p.expect(TokRParen, "')' closing a RETURN group"); err != nil {
			return nil, err
		}
		ev.Return = append(ev.Return, group)
		if p.at(TokComma) {
			p.advance()
			continue
		}
		break
	}
	return ev, nil
}

func (p *Parser) parseEventPred(ev *EventStmt) (EventPred, error) {
	quant := QuantNone
	switch {
	case p.atKw("FORALL"):
		quant = QuantForall
	case p.atKw("EXISTS"):
		quant = QuantExists
	}
	if quant == QuantNone {
		e, err := p.parseComparisonLevel()
		if err != nil {
			return EventPred{}, err
		}
		return EventPred{Cond: e}, nil
	}
	p.advance() // FORALL/EXISTS
	varTok, err := p.expect(TokIdent, "quantifier variable")
	if err != nil {
		return EventPred{}, err
	}
	if err := p.expectKw("IN"); err != nil {
		return EventPred{}, err
	}
	overTok, err := p.expect(TokIdent, "sequence alias")
	if err != nil {
		return EventPred{}, err
	}
	found := false
	for _, s := range ev.Seq {
		if strings.EqualFold(s.Alias, overTok.Text) {
			found = true
			break
		}
	}
	if !found {
		return EventPred{}, p.errorf("quantifier ranges over unknown alias %q", overTok.Text)
	}
	cond, err := p.parseComparisonLevel()
	if err != nil {
		return EventPred{}, err
	}
	return EventPred{Quant: quant, Var: varTok.Text, Over: overTok.Text, Cond: cond}, nil
}

// --- expressions (precedence climbing) ---

func (p *Parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKw("OR") {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &expr.Binary{Op: expr.OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKw("AND") {
		p.advance()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &expr.Binary{Op: expr.OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (expr.Expr, error) {
	if p.atKw("NOT") && !p.peek().Is("IN") {
		p.advance()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Op: expr.OpNot, X: x}, nil
	}
	return p.parseComparisonLevel()
}

func (p *Parser) parseComparisonLevel() (expr.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.atKw("IS") {
		p.advance()
		neg := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &expr.IsNull{X: left, Negate: neg}, nil
	}
	// [NOT] IN
	if p.atKw("IN") || (p.atKw("NOT") && p.peek().Is("IN")) {
		neg := false
		if p.atKw("NOT") {
			neg = true
			p.advance()
		}
		p.advance() // IN
		src, err := p.parseInSource()
		if err != nil {
			return nil, err
		}
		return &expr.In{X: left, Source: src, Negate: neg}, nil
	}
	if p.atKw("BETWEEN") {
		p.advance()
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &expr.Binary{Op: expr.OpAnd,
			L: &expr.Binary{Op: expr.OpGe, L: left, R: lo},
			R: &expr.Binary{Op: expr.OpLe, L: left, R: hi}}, nil
	}
	var op expr.BinOp
	switch p.cur().Kind {
	case TokEq:
		op = expr.OpEq
	case TokNe:
		op = expr.OpNe
	case TokLt:
		op = expr.OpLt
	case TokLe:
		op = expr.OpLe
	case TokGt:
		op = expr.OpGt
	case TokGe:
		op = expr.OpGe
	default:
		return left, nil
	}
	p.advance()
	right, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &expr.Binary{Op: op, L: left, R: right}, nil
}

func (p *Parser) parseInSource() (expr.InSource, error) {
	if p.at(TokLParen) {
		p.advance()
		if p.atKw("SELECT") {
			q, err := p.parseQueryExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen, "')'"); err != nil {
				return nil, err
			}
			return &expr.Subquery{Query: q}, nil
		}
		// literal list: IN (1, 2, 3)
		set := expr.NewValueSet()
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			v, err := expr.Bind(e, &expr.BindContext{})(&expr.Env{})
			if err != nil {
				return nil, p.errorf("IN list elements must be constants: %v", err)
			}
			set.Add(v)
			if p.at(TokComma) {
				p.advance()
				continue
			}
			break
		}
		if _, err := p.expect(TokRParen, "')'"); err != nil {
			return nil, err
		}
		return &expr.SetSource{Set: set}, nil
	}
	// IN relname[@version]
	nameTok, err := p.expect(TokIdent, "relation name or subquery after IN")
	if err != nil {
		return nil, err
	}
	src := &expr.RelationSource{Name: nameTok.Text}
	if p.at(TokAt) {
		p.advance()
		v, err := p.parseVersionRef()
		if err != nil {
			return nil, err
		}
		src.Version = v
	}
	return src, nil
}

func (p *Parser) parseAdditive() (expr.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.BinOp
		switch p.cur().Kind {
		case TokPlus:
			op = expr.OpAdd
		case TokMinus:
			op = expr.OpSub
		case TokConcat:
			op = expr.OpConcat
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &expr.Binary{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseMultiplicative() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.BinOp
		switch p.cur().Kind {
		case TokStar:
			op = expr.OpMul
		case TokSlash:
			op = expr.OpDiv
		case TokPercent:
			op = expr.OpMod
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &expr.Binary{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseUnary() (expr.Expr, error) {
	if p.at(TokMinus) {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Op: expr.OpNeg, X: x}, nil
	}
	if p.at(TokPlus) {
		p.advance()
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (expr.Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.advance()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.Text)
			}
			return expr.Literal(relation.Float(f)), nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.Text)
		}
		return expr.Literal(relation.Int(n)), nil
	case t.Kind == TokString:
		p.advance()
		return expr.Literal(relation.String(t.Text)), nil
	case t.Is("TRUE"):
		p.advance()
		return expr.Literal(relation.Bool(true)), nil
	case t.Is("FALSE"):
		p.advance()
		return expr.Literal(relation.Bool(false)), nil
	case t.Is("NULL"):
		p.advance()
		return expr.Literal(relation.Null()), nil
	case t.Is("CASE"):
		return p.parseCase()
	case t.Kind == TokLParen:
		p.advance()
		if p.atKw("SELECT") {
			q, err := p.parseQueryExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen, "')'"); err != nil {
				return nil, err
			}
			return &expr.Subquery{Query: q}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent && !isReserved(t.Text):
		return p.parseIdentExpr()
	default:
		return nil, p.errorf("expected an expression")
	}
}

// aggregate function names recognized during parsing.
var aggNames = map[string]bool{"count": true, "sum": true, "avg": true, "min": true, "max": true}

func (p *Parser) parseIdentExpr() (expr.Expr, error) {
	name := p.advance().Text
	// function call
	if p.at(TokLParen) {
		p.advance()
		lower := strings.ToLower(name)
		if aggNames[lower] {
			agg := &expr.Agg{Name: lower}
			if p.acceptKw("DISTINCT") {
				agg.Distinct = true
			}
			if p.at(TokStar) {
				p.advance()
				if lower != "count" {
					return nil, p.errorf("%s(*) is only valid for count", lower)
				}
			} else {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				agg.Arg = arg
			}
			if _, err := p.expect(TokRParen, "')'"); err != nil {
				return nil, err
			}
			return agg, nil
		}
		call := &expr.Call{Name: lower}
		if !p.at(TokRParen) {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.at(TokComma) {
					p.advance()
					continue
				}
				break
			}
		}
		if _, err := p.expect(TokRParen, "')'"); err != nil {
			return nil, err
		}
		return call, nil
	}
	// qualified column: name.col
	if p.at(TokDot) {
		p.advance()
		col, err := p.expect(TokIdent, "column name after '.'")
		if err != nil {
			return nil, err
		}
		return &expr.Column{Qualifier: name, Name: col.Text}, nil
	}
	return &expr.Column{Name: name}, nil
}

func (p *Parser) parseCase() (expr.Expr, error) {
	p.advance() // CASE
	c := &expr.Case{}
	for p.atKw("WHEN") {
		p.advance()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, expr.When{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}
