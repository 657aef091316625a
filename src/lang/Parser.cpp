//===- Parser.cpp ---------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <iterator>

using namespace kiss;
using namespace kiss::lang;

Parser::Parser(const SourceManager &SM, uint32_t BufferId, SymbolTable &Syms,
               TypeContext &Types, DiagnosticEngine &Diags)
    : Lex(SM, BufferId, Diags), Syms(Syms), Types(Types), Diags(Diags) {
  Tok = Lex.next();
}

void Parser::consume() { Tok = Lex.next(); }

bool Parser::expect(TokenKind Kind) {
  if (Tok.is(Kind)) {
    consume();
    return true;
  }
  Diags.error(Tok.Loc, std::string("expected ") + getTokenKindName(Kind) +
                           " but found " + getTokenKindName(Tok.Kind));
  return false;
}

bool Parser::consumeIf(TokenKind Kind) {
  if (!Tok.is(Kind))
    return false;
  consume();
  return true;
}

Symbol Parser::internText(const Token &T) { return Syms.intern(T.Text); }

std::unique_ptr<Program> Parser::parseProgram() {
  auto P = std::make_unique<Program>(Syms, Types);
  while (!Tok.is(TokenKind::Eof)) {
    if (!parseTopLevelDecl(*P))
      return nullptr;
  }
  P->setEntryName(Syms.intern("main"));
  return P;
}

bool Parser::parseTopLevelDecl(Program &P) {
  if (Tok.is(TokenKind::KwStruct))
    return parseStructDecl(P);
  return parseFuncOrGlobal(P);
}

bool Parser::parseStructDecl(Program &P) {
  consume(); // 'struct'
  if (!Tok.is(TokenKind::Identifier)) {
    Diags.error(Tok.Loc, "expected struct name");
    return false;
  }
  Symbol Name = internText(Tok);
  SourceLoc Loc = Tok.Loc;
  consume();

  if (P.getStruct(Name)) {
    Diags.error(Loc, "redefinition of struct '" + std::string(Syms.str(Name)) +
                         "'");
    return false;
  }
  // Register the name before the body so self-referential pointer fields
  // (e.g. linked nodes) parse.
  KnownStructNames.insert(Name);
  StructDecl *S = P.addStruct(Name, Loc);

  if (!expect(TokenKind::LBrace))
    return false;
  while (!Tok.is(TokenKind::RBrace)) {
    if (Tok.is(TokenKind::Eof)) {
      Diags.error(Tok.Loc, "unterminated struct body");
      return false;
    }
    const Type *FieldTy = parseType();
    if (!FieldTy)
      return false;
    if (!Tok.is(TokenKind::Identifier)) {
      Diags.error(Tok.Loc, "expected field name");
      return false;
    }
    FieldDecl F;
    F.Name = internText(Tok);
    F.Ty = FieldTy;
    F.Loc = Tok.Loc;
    consume();
    if (S->getFieldIndex(F.Name) >= 0) {
      Diags.error(F.Loc, "duplicate field '" + std::string(Syms.str(F.Name)) +
                             "'");
      return false;
    }
    S->addField(std::move(F));
    if (!expect(TokenKind::Semi))
      return false;
  }
  consume(); // '}'
  consumeIf(TokenKind::Semi);
  return true;
}

bool Parser::parseFuncOrGlobal(Program &P) {
  SourceLoc DeclLoc = Tok.Loc;
  const Type *Ty = parseType();
  if (!Ty)
    return false;
  if (!Tok.is(TokenKind::Identifier)) {
    Diags.error(Tok.Loc, "expected declaration name");
    return false;
  }
  Symbol Name = internText(Tok);
  consume();

  if (Tok.is(TokenKind::LParen)) {
    // Function definition.
    consume();
    FuncDecl *F = P.addFunction(Name, Ty, DeclLoc);
    if (!Tok.is(TokenKind::RParen)) {
      do {
        const Type *ParamTy = parseType();
        if (!ParamTy)
          return false;
        if (!Tok.is(TokenKind::Identifier)) {
          Diags.error(Tok.Loc, "expected parameter name");
          return false;
        }
        VarDecl V;
        V.Name = internText(Tok);
        V.Ty = ParamTy;
        V.Loc = Tok.Loc;
        consume();
        F->addLocal(std::move(V));
      } while (consumeIf(TokenKind::Comma));
    }
    F->setNumParams(F->getLocals().size());
    if (!expect(TokenKind::RParen))
      return false;
    if (!Tok.is(TokenKind::LBrace)) {
      Diags.error(Tok.Loc, "expected function body");
      return false;
    }
    StmtPtr Body = parseBlock();
    if (!Body)
      return false;
    F->setBody(std::move(Body));
    return true;
  }

  // Global variable.
  GlobalDecl G;
  G.Name = Name;
  G.Ty = Ty;
  G.Loc = DeclLoc;
  if (consumeIf(TokenKind::Assign)) {
    // Only literal initializers are allowed for globals.
    if (Tok.is(TokenKind::KwTrue)) {
      G.Init = ConstInit::makeBool(true);
      consume();
    } else if (Tok.is(TokenKind::KwFalse)) {
      G.Init = ConstInit::makeBool(false);
      consume();
    } else if (Tok.is(TokenKind::KwNull)) {
      G.Init = ConstInit::makeNull();
      consume();
    } else {
      int64_t V;
      if (!parseSignedIntLiteral(V)) {
        Diags.error(Tok.Loc, "global initializer must be a literal");
        return false;
      }
      G.Init = ConstInit::makeInt(V);
    }
  }
  P.addGlobal(std::move(G));
  return expect(TokenKind::Semi);
}

bool Parser::startsType() const {
  switch (Tok.Kind) {
  case TokenKind::KwVoid:
  case TokenKind::KwBool:
  case TokenKind::KwInt:
  case TokenKind::KwFunc:
    return true;
  case TokenKind::Identifier: {
    Symbol S = Syms.lookup(Tok.Text);
    return S.isValid() && KnownStructNames.count(S);
  }
  default:
    return false;
  }
}

const Type *Parser::parseType() {
  const Type *Base = nullptr;
  switch (Tok.Kind) {
  case TokenKind::KwVoid:
    Base = Types.getVoidType();
    consume();
    break;
  case TokenKind::KwBool:
    Base = Types.getBoolType();
    consume();
    break;
  case TokenKind::KwInt:
    Base = Types.getIntType();
    consume();
    break;
  case TokenKind::KwFunc: {
    consume();
    if (!expect(TokenKind::Less))
      return nullptr;
    const Type *Ret = parseType();
    if (!Ret)
      return nullptr;
    if (!expect(TokenKind::LParen))
      return nullptr;
    std::vector<const Type *> Params;
    if (!Tok.is(TokenKind::RParen)) {
      do {
        const Type *ParamTy = parseType();
        if (!ParamTy)
          return nullptr;
        Params.push_back(ParamTy);
      } while (consumeIf(TokenKind::Comma));
    }
    if (!expect(TokenKind::RParen))
      return nullptr;
    if (!expect(TokenKind::Greater))
      return nullptr;
    Base = Types.getFuncType(Ret, std::move(Params));
    break;
  }
  case TokenKind::Identifier: {
    Symbol Name = internText(Tok);
    if (!KnownStructNames.count(Name)) {
      Diags.error(Tok.Loc, "unknown type '" + std::string(Tok.Text) + "'");
      return nullptr;
    }
    Base = Types.getStructType(Name);
    consume();
    break;
  }
  default:
    Diags.error(Tok.Loc, std::string("expected type but found ") +
                             getTokenKindName(Tok.Kind));
    return nullptr;
  }

  while (consumeIf(TokenKind::Star))
    Base = Types.getPointerType(Base);
  return Base;
}

StmtPtr Parser::parseBlock() {
  SourceLoc Loc = Tok.Loc;
  if (!expect(TokenKind::LBrace))
    return nullptr;
  // The statements of every open block wait on one stack; a closed block
  // takes its run in one allocation of exactly its size.
  size_t Begin = Pending.size();
  while (!Tok.is(TokenKind::RBrace)) {
    if (Tok.is(TokenKind::Eof)) {
      Diags.error(Tok.Loc, "unterminated block");
      Pending.erase(Pending.begin() + Begin, Pending.end());
      return nullptr;
    }
    StmtPtr S = parseStmt();
    if (!S) {
      Pending.erase(Pending.begin() + Begin, Pending.end());
      return nullptr;
    }
    Pending.push_back(std::move(S));
  }
  consume(); // '}'
  std::vector<StmtPtr> Stmts(std::make_move_iterator(Pending.begin() + Begin),
                             std::make_move_iterator(Pending.end()));
  Pending.erase(Pending.begin() + Begin, Pending.end());
  return std::make_unique<BlockStmt>(std::move(Stmts), Loc);
}

StmtPtr Parser::parseDeclStmt() {
  SourceLoc Loc = Tok.Loc;
  const Type *Ty = parseType();
  if (!Ty)
    return nullptr;
  if (!Tok.is(TokenKind::Identifier)) {
    Diags.error(Tok.Loc, "expected variable name");
    return nullptr;
  }
  Symbol Name = internText(Tok);
  consume();
  ExprPtr Init;
  if (consumeIf(TokenKind::Assign)) {
    Init = parseExpr();
    if (!Init)
      return nullptr;
  }
  if (!expect(TokenKind::Semi))
    return nullptr;
  return std::make_unique<DeclStmt>(Name, Ty, std::move(Init), Loc);
}

StmtPtr Parser::parseIf() {
  SourceLoc Loc = Tok.Loc;
  consume(); // 'if'
  if (!expect(TokenKind::LParen))
    return nullptr;
  ExprPtr Cond = parseExpr();
  if (!Cond)
    return nullptr;
  if (!expect(TokenKind::RParen))
    return nullptr;
  StmtPtr Then = parseStmt();
  if (!Then)
    return nullptr;
  StmtPtr Else;
  if (consumeIf(TokenKind::KwElse)) {
    Else = parseStmt();
    if (!Else)
      return nullptr;
  }
  return std::make_unique<IfStmt>(std::move(Cond), std::move(Then),
                                  std::move(Else), Loc);
}

StmtPtr Parser::parseWhile() {
  SourceLoc Loc = Tok.Loc;
  consume(); // 'while'
  if (!expect(TokenKind::LParen))
    return nullptr;
  ExprPtr Cond = parseExpr();
  if (!Cond)
    return nullptr;
  if (!expect(TokenKind::RParen))
    return nullptr;
  StmtPtr Body = parseStmt();
  if (!Body)
    return nullptr;
  return std::make_unique<WhileStmt>(std::move(Cond), std::move(Body), Loc);
}

StmtPtr Parser::parseChoice() {
  SourceLoc Loc = Tok.Loc;
  consume(); // 'choice'
  std::vector<StmtPtr> Branches;
  StmtPtr First = parseBlock();
  if (!First)
    return nullptr;
  Branches.push_back(std::move(First));
  while (consumeIf(TokenKind::KwOr)) {
    StmtPtr Next = parseBlock();
    if (!Next)
      return nullptr;
    Branches.push_back(std::move(Next));
  }
  return std::make_unique<ChoiceStmt>(std::move(Branches), Loc);
}

StmtPtr Parser::parseAssignOrExprStmt() {
  SourceLoc Loc = Tok.Loc;
  ExprPtr LHS = parseExpr();
  if (!LHS)
    return nullptr;
  if (consumeIf(TokenKind::Assign)) {
    ExprPtr RHS = parseExpr();
    if (!RHS)
      return nullptr;
    if (!expect(TokenKind::Semi))
      return nullptr;
    return std::make_unique<AssignStmt>(std::move(LHS), std::move(RHS), Loc);
  }
  if (!expect(TokenKind::Semi))
    return nullptr;
  return std::make_unique<ExprStmt>(std::move(LHS), Loc);
}

StmtPtr Parser::parseStmt() {
  switch (Tok.Kind) {
  case TokenKind::LBrace:
    return parseBlock();
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwChoice:
    return parseChoice();
  case TokenKind::KwIter: {
    SourceLoc Loc = Tok.Loc;
    consume();
    StmtPtr Body = parseBlock();
    if (!Body)
      return nullptr;
    return std::make_unique<IterStmt>(std::move(Body), Loc);
  }
  case TokenKind::KwAtomic: {
    SourceLoc Loc = Tok.Loc;
    consume();
    StmtPtr Body = parseBlock();
    if (!Body)
      return nullptr;
    return std::make_unique<AtomicStmt>(std::move(Body), Loc);
  }
  case TokenKind::KwAssert:
  case TokenKind::KwAssume: {
    bool IsAssert = Tok.is(TokenKind::KwAssert);
    SourceLoc Loc = Tok.Loc;
    consume();
    if (!expect(TokenKind::LParen))
      return nullptr;
    ExprPtr Cond = parseExpr();
    if (!Cond)
      return nullptr;
    if (!expect(TokenKind::RParen) || !expect(TokenKind::Semi))
      return nullptr;
    if (IsAssert)
      return std::make_unique<AssertStmt>(std::move(Cond), Loc);
    return std::make_unique<AssumeStmt>(std::move(Cond), Loc);
  }
  case TokenKind::KwAsync: {
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr E = parsePostfix();
    if (!E)
      return nullptr;
    auto *Call = dyn_cast<CallExpr>(E.get());
    if (!Call) {
      Diags.error(Loc, "'async' must be followed by a call");
      return nullptr;
    }
    if (!expect(TokenKind::Semi))
      return nullptr;
    // Split the call expression into callee/args for the AsyncStmt node.
    auto *CE = cast<CallExpr>(E.get());
    std::vector<ExprPtr> Args = std::move(CE->getArgs());
    ExprPtr Callee = CE->getCallee()->clone();
    return std::make_unique<AsyncStmt>(std::move(Callee), std::move(Args),
                                       Loc);
  }
  case TokenKind::KwBenign: {
    // §6 (future work realized): mark a statement's accesses benign so the
    // race instrumenter skips them.
    consume();
    StmtPtr Sub = parseStmt();
    if (!Sub)
      return nullptr;
    Sub->setBenign(true);
    return Sub;
  }
  case TokenKind::KwReturn: {
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr Value;
    if (!Tok.is(TokenKind::Semi)) {
      Value = parseExpr();
      if (!Value)
        return nullptr;
    }
    if (!expect(TokenKind::Semi))
      return nullptr;
    return std::make_unique<ReturnStmt>(std::move(Value), Loc);
  }
  case TokenKind::KwSkip: {
    SourceLoc Loc = Tok.Loc;
    consume();
    if (!expect(TokenKind::Semi))
      return nullptr;
    return std::make_unique<SkipStmt>(Loc);
  }
  default:
    if (startsType())
      return parseDeclStmt();
    return parseAssignOrExprStmt();
  }
}

ExprPtr Parser::parseExpr() { return parseLOr(); }

ExprPtr Parser::parseLOr() {
  ExprPtr LHS = parseLAnd();
  if (!LHS)
    return nullptr;
  while (Tok.is(TokenKind::PipePipe)) {
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr RHS = parseLAnd();
    if (!RHS)
      return nullptr;
    LHS = std::make_unique<BinaryExpr>(BinaryOp::LOr, std::move(LHS),
                                       std::move(RHS), Loc);
  }
  return LHS;
}

ExprPtr Parser::parseLAnd() {
  ExprPtr LHS = parseCompare();
  if (!LHS)
    return nullptr;
  while (Tok.is(TokenKind::AmpAmp)) {
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr RHS = parseCompare();
    if (!RHS)
      return nullptr;
    LHS = std::make_unique<BinaryExpr>(BinaryOp::LAnd, std::move(LHS),
                                       std::move(RHS), Loc);
  }
  return LHS;
}

ExprPtr Parser::parseCompare() {
  ExprPtr LHS = parseAdd();
  if (!LHS)
    return nullptr;
  BinaryOp Op;
  switch (Tok.Kind) {
  case TokenKind::EqEq:
    Op = BinaryOp::Eq;
    break;
  case TokenKind::NotEq:
    Op = BinaryOp::Ne;
    break;
  case TokenKind::Less:
    Op = BinaryOp::Lt;
    break;
  case TokenKind::LessEq:
    Op = BinaryOp::Le;
    break;
  case TokenKind::Greater:
    Op = BinaryOp::Gt;
    break;
  case TokenKind::GreaterEq:
    Op = BinaryOp::Ge;
    break;
  default:
    return LHS;
  }
  SourceLoc Loc = Tok.Loc;
  consume();
  ExprPtr RHS = parseAdd();
  if (!RHS)
    return nullptr;
  return std::make_unique<BinaryExpr>(Op, std::move(LHS), std::move(RHS), Loc);
}

ExprPtr Parser::parseAdd() {
  ExprPtr LHS = parseMul();
  if (!LHS)
    return nullptr;
  while (Tok.is(TokenKind::Plus) || Tok.is(TokenKind::Minus)) {
    BinaryOp Op = Tok.is(TokenKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr RHS = parseMul();
    if (!RHS)
      return nullptr;
    LHS = std::make_unique<BinaryExpr>(Op, std::move(LHS), std::move(RHS),
                                       Loc);
  }
  return LHS;
}

ExprPtr Parser::parseMul() {
  ExprPtr LHS = parseUnary();
  if (!LHS)
    return nullptr;
  while (Tok.is(TokenKind::Star)) {
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr RHS = parseUnary();
    if (!RHS)
      return nullptr;
    LHS = std::make_unique<BinaryExpr>(BinaryOp::Mul, std::move(LHS),
                                       std::move(RHS), Loc);
  }
  return LHS;
}

ExprPtr Parser::parseUnary() {
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case TokenKind::Bang: {
    consume();
    ExprPtr Sub = parseUnary();
    if (!Sub)
      return nullptr;
    return std::make_unique<UnaryExpr>(UnaryOp::Not, std::move(Sub), Loc);
  }
  case TokenKind::Minus: {
    consume();
    ExprPtr Sub = parseUnary();
    if (!Sub)
      return nullptr;
    return std::make_unique<UnaryExpr>(UnaryOp::Neg, std::move(Sub), Loc);
  }
  case TokenKind::Star: {
    consume();
    ExprPtr Sub = parseUnary();
    if (!Sub)
      return nullptr;
    return std::make_unique<DerefExpr>(std::move(Sub), Loc);
  }
  case TokenKind::Amp: {
    consume();
    ExprPtr Sub = parseUnary();
    if (!Sub)
      return nullptr;
    return std::make_unique<AddrOfExpr>(std::move(Sub), Loc);
  }
  default:
    return parsePostfix();
  }
}

ExprPtr Parser::parsePostfix() {
  ExprPtr E = parsePrimary();
  if (!E)
    return nullptr;
  while (true) {
    if (Tok.is(TokenKind::Arrow)) {
      SourceLoc Loc = Tok.Loc;
      consume();
      if (!Tok.is(TokenKind::Identifier)) {
        Diags.error(Tok.Loc, "expected field name after '->'");
        return nullptr;
      }
      Symbol Field = internText(Tok);
      consume();
      E = std::make_unique<FieldExpr>(std::move(E), Field, Loc);
      continue;
    }
    if (Tok.is(TokenKind::LParen)) {
      SourceLoc Loc = Tok.Loc;
      consume();
      std::vector<ExprPtr> Args;
      if (!Tok.is(TokenKind::RParen)) {
        do {
          ExprPtr Arg = parseExpr();
          if (!Arg)
            return nullptr;
          Args.push_back(std::move(Arg));
        } while (consumeIf(TokenKind::Comma));
      }
      if (!expect(TokenKind::RParen))
        return nullptr;
      E = std::make_unique<CallExpr>(std::move(E), std::move(Args), Loc);
      continue;
    }
    return E;
  }
}

bool Parser::parseSignedIntLiteral(int64_t &Out) {
  bool Negate = consumeIf(TokenKind::Minus);
  if (!Tok.is(TokenKind::IntLiteral))
    return false;
  Out = Negate ? -Tok.IntValue : Tok.IntValue;
  consume();
  return true;
}

ExprPtr Parser::parsePrimary() {
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case TokenKind::IntLiteral: {
    int64_t V = Tok.IntValue;
    consume();
    return std::make_unique<IntLitExpr>(V, Loc);
  }
  case TokenKind::KwTrue:
    consume();
    return std::make_unique<BoolLitExpr>(true, Loc);
  case TokenKind::KwFalse:
    consume();
    return std::make_unique<BoolLitExpr>(false, Loc);
  case TokenKind::KwNull:
    consume();
    return std::make_unique<NullLitExpr>(Loc);
  case TokenKind::Identifier: {
    Symbol Name = internText(Tok);
    consume();
    // Sema rewrites VarRefs naming functions into FuncRefs.
    return std::make_unique<VarRefExpr>(Name, Loc);
  }
  case TokenKind::LParen: {
    consume();
    ExprPtr E = parseExpr();
    if (!E)
      return nullptr;
    if (!expect(TokenKind::RParen))
      return nullptr;
    return E;
  }
  case TokenKind::KwNew: {
    consume();
    if (!Tok.is(TokenKind::Identifier)) {
      Diags.error(Tok.Loc, "expected struct name after 'new'");
      return nullptr;
    }
    Symbol Name = internText(Tok);
    consume();
    return std::make_unique<NewExpr>(Name, Loc);
  }
  case TokenKind::KwNondetBool: {
    consume();
    if (!expect(TokenKind::LParen) || !expect(TokenKind::RParen))
      return nullptr;
    return std::make_unique<NondetExpr>(Loc);
  }
  case TokenKind::KwNondetInt: {
    consume();
    if (!expect(TokenKind::LParen))
      return nullptr;
    int64_t Lo, Hi;
    if (!parseSignedIntLiteral(Lo)) {
      Diags.error(Tok.Loc, "expected integer bound in nondet_int");
      return nullptr;
    }
    if (!expect(TokenKind::Comma))
      return nullptr;
    if (!parseSignedIntLiteral(Hi)) {
      Diags.error(Tok.Loc, "expected integer bound in nondet_int");
      return nullptr;
    }
    if (!expect(TokenKind::RParen))
      return nullptr;
    if (Lo > Hi) {
      Diags.error(Loc, "nondet_int range is empty");
      return nullptr;
    }
    return std::make_unique<NondetExpr>(Lo, Hi, Loc);
  }
  default:
    Diags.error(Tok.Loc, std::string("expected expression but found ") +
                             getTokenKindName(Tok.Kind));
    return nullptr;
  }
}

std::unique_ptr<Program> kiss::lang::parse(SourceManager &SM, std::string Name,
                                           std::string Source,
                                           SymbolTable &Syms,
                                           TypeContext &Types,
                                           DiagnosticEngine &Diags) {
  uint32_t BufferId = SM.addBuffer(std::move(Name), std::move(Source));
  Parser P(SM, BufferId, Syms, Types, Diags);
  auto Prog = P.parseProgram();
  if (Diags.hasErrors())
    return nullptr;
  return Prog;
}
